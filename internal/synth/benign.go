package synth

import (
	"strconv"
	"strings"

	"harassrepro/internal/randx"
)

// Flavor selects the register of benign chatter, roughly matching each
// platform type's typical content.
type Flavor int

const (
	// FlavorBoard is image-board thread chatter.
	FlavorBoard Flavor = iota
	// FlavorChat is instant-message chatter.
	FlavorChat
	// FlavorMicro is short microblog posts.
	FlavorMicro
	// FlavorPaste is long-form paste content (code, configs, lists).
	FlavorPaste
	// FlavorBlog is long-form blog prose.
	FlavorBlog
)

var boardChatter = []string{
	"new thread for the weekly game night, post your usernames",
	"the remaster looks worse than the original, change my mind",
	"anyone archive the old thread before it 404d",
	"this board has been slow all week",
	"sauce on that image from the last thread?",
	"rolling for the character poll, dubs decides",
	"the mods deleted my thread again for no reason",
	"best arc of the season so far, discuss",
}

var chatChatter = []string{
	"anyone up for ranked tonight",
	"the server icon update looks great",
	"can a mod pin the schedule message",
	"voice chat at 9 as usual?",
	"lol did you see the clip from yesterday",
	"new emotes just dropped check them out",
	"patch notes are out, nerfs everywhere",
	"gg everyone, same time tomorrow",
}

var microChatter = []string{
	"coffee first, opinions later",
	"the debate last night was something else",
	"new post up on the blog, link in bio",
	"traffic on the bridge again, every single day",
	"reading an excellent book about naval history",
	"the market is wild this week",
	"sunset from the office window, no filter",
	"hot take: the sequel was better",
}

var pasteSnippets = []string{
	"#!/bin/sh\nset -e\nmake build\nmake test\necho done",
	"server {\n  listen 8080;\n  location / { return 200; }\n}",
	"TODO list:\n- fix the parser\n- write docs\n- release v2",
	"SELECT id, name FROM users WHERE active = 1 ORDER BY name;",
	"def main():\n    print('hello world')\n\nif __name__ == '__main__':\n    main()",
	"recipe: two cups flour, one cup water, pinch of salt, bake at 200",
	"error log:\nconnection reset by peer\nretrying in 5s\nconnected",
	"shopping: milk, eggs, bread, coffee, apples, rice",
}

var blogProse = []string{
	"This week's roundup covers the usual local developments and a few notes from readers.",
	"The council meeting ran long, but the zoning question was finally settled.",
	"Our movement grows when we write, organize, and publish; this site exists for that work.",
	"A reader sent in photographs from the weekend march downtown.",
	"We will continue documenting these events as they unfold, as we have for years.",
}

// hardNegatives are benign messages that share surface features with
// calls to harassment (mobilizing language, pronouns, reporting verbs).
// They are the paper's observed false-positive shapes, most notably
// "encouraging the crowd to contact their local elected representative".
var hardNegatives = []string{
	"we need to contact our local elected representative about the zoning bill",
	"we should all go vote this weekend, bring a friend",
	"lets organize the charity stream for saturday, everyone bring ideas",
	"we need to report the outage to the provider, ticket is open",
	"we should get him a card, he is retiring on friday",
	"we will raid the dungeon at 8, need two healers",
	"we have to flag the broken posts for the mods so they can fix the formatting",
	"i reported my own comment by accident, ignore that",
	"we need to spam refresh until tickets go on sale lol",
	"call your representative and tell them to vote no on the bill",
	"we should report all of them to the tournament desk so everyone gets seeded",
	"we need to flag all of the duplicate tickets and report each to the helpdesk",
	"lets raid with all six of us in the dungeon tonight, bring them potions",
}

// Benign returns one benign message in the given flavor. With probability
// hardNegativeRate it instead returns a hard negative that superficially
// resembles mobilizing language.
func Benign(flavor Flavor, rng *randx.Source) string {
	const hardNegativeRate = 0.08
	if rng.Bool(hardNegativeRate) {
		return randx.Pick(rng, hardNegatives)
	}
	switch flavor {
	case FlavorChat:
		return randx.Pick(rng, chatChatter)
	case FlavorMicro:
		return randx.Pick(rng, microChatter)
	case FlavorPaste:
		// Pastes are long-form: stitch several snippets together.
		n := 1 + rng.Intn(4)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = randx.Pick(rng, pasteSnippets)
		}
		return strings.Join(parts, "\n\n")
	case FlavorBlog:
		n := 2 + rng.Intn(4)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = randx.Pick(rng, blogProse)
		}
		return strings.Join(parts, " ")
	default:
		return randx.Pick(rng, boardChatter)
	}
}

// ThreadReply returns a short in-thread reply message (board replies to
// an existing conversation).
func ThreadReply(rng *randx.Source) string {
	replies := []string{
		"this", "based", "lurk more", "checked", "source?", "bump",
		"screenshotted", "old news", "kek", "fake and gay", "saved",
		"same thread every week", "who cares", "more please", "archive it",
	}
	if rng.Bool(0.6) {
		return randx.Pick(rng, replies)
	}
	return Benign(FlavorBoard, rng)
}

// capitalize upper-cases the first letter of s (ASCII-safe for our
// synthetic street names).
func capitalize(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// SyntheticUsername produces a pseudo-anonymous poster handle.
func SyntheticUsername(rng *randx.Source) string {
	adjectives := []string{"grim", "silent", "rusty", "pale", "lone", "odd", "swift", "dull"}
	nouns := []string{"falcon", "anvil", "cipher", "lantern", "badger", "comet", "mole", "crow"}
	return randx.Pick(rng, adjectives) + "_" + randx.Pick(rng, nouns) + strconv.Itoa(rng.Intn(1000))
}
