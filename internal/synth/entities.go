// Package synth generates the synthetic entities and message text that
// substitute for the paper's proprietary platform crawls (DESIGN.md §1).
//
// All values are fictional by construction: names come from synthetic
// component lists, phone numbers use the reserved 555-01xx fictional
// exchange block, SSNs are drawn from shapes that pass format validation
// but are stamped from a synthetic generator, credit-card numbers are
// Luhn-valid numbers in test-only prefixes, and street addresses combine
// invented street names with generic suffixes. No real individual's data
// is used or reproduced.
package synth

import (
	"fmt"
	"strconv"

	"harassrepro/internal/gender"
	"harassrepro/internal/pii"
	"harassrepro/internal/randx"
)

var (
	maleFirstNames = []string{
		"victor", "marcus", "dorian", "felix", "anton", "casper", "lyle",
		"roland", "silas", "tobias", "emmett", "hollis", "ivor", "lucian",
		"nestor", "orson", "percy", "quentin", "rufus", "stellan",
	}
	femaleFirstNames = []string{
		"mira", "celeste", "odette", "tamsin", "ingrid", "lenora", "saskia",
		"petra", "rosalind", "vesper", "wilhelmina", "xanthe", "yolanda",
		"zelda", "annika", "bryony", "cordelia", "delphine", "elspeth", "freya",
	}
	lastNames = []string{
		"ashgrove", "blackwood", "crestfall", "dunmore", "everhart",
		"fennimore", "grimsby", "holloway", "ironside", "jasperton",
		"kingsley", "larkspur", "mossbank", "northgate", "oakhurst",
		"pembrook", "quillfeather", "ravenscroft", "silverton", "thornbury",
	}
	streetNames = []string{
		"maple", "oak", "cedar", "willow", "birch", "aspen", "juniper",
		"magnolia", "sycamore", "hawthorn", "alder", "chestnut", "dogwood",
		"elm", "foxglove", "garland", "heather", "ivy", "laurel", "meadow",
	}
	streetSuffixes = []string{
		"Street", "Avenue", "Road", "Boulevard", "Drive", "Lane", "Court", "Way", "Place", "Terrace",
	}
	cities = []string{
		"Fairview", "Riverton", "Lakewood", "Milbrook", "Cedarburg",
		"Ashford", "Brookhaven", "Claremont", "Dunwich", "Eastvale",
	}
	states = []string{"OH", "IL", "TX", "CA", "NY", "PA", "GA", "NC", "MI", "WA"}

	emailDomains = []string{
		"mailnest.example", "postbox.example", "inboxly.example",
		"quickmail.example", "webletter.example",
	}
	employers = []string{
		"the hardware store downtown", "Lakeside Logistics", "the regional hospital",
		"Fairview Middle School", "the county library", "Northgate Insurance",
		"the car dealership on route 9", "Brookhaven Foods",
	}
	familyMembers = []string{"mother", "father", "sister", "brother", "wife", "husband", "cousin", "uncle"}
)

// Persona is a synthetic harassment target with a full set of fictional
// PII, the raw material for generated doxes and calls to harassment.
type Persona struct {
	FirstName string
	LastName  string
	Gender    gender.Gender // Male or Female

	StreetAddress string // "123 Maple Street"
	City          string
	State         string
	Zip           string

	Phone string // digits only, NANP-valid fictional 555-01xx number
	SSN   string // AAA-GG-SSSS, format-valid synthetic
	Email string
	Card  string // Luhn-valid test-prefix card number

	FacebookHandle  string
	InstagramHandle string
	TwitterHandle   string
	YouTubeHandle   string

	Employer     string
	FamilyMember string
}

// FullName returns "first last".
func (p Persona) FullName() string { return p.FirstName + " " + p.LastName }

// FullAddress returns the complete mailing address.
func (p Persona) FullAddress() string {
	return fmt.Sprintf("%s, %s, %s, %s", p.StreetAddress, p.City, p.State, p.Zip)
}

// FormattedPhone returns the phone in (AAA) BBB-CCCC form.
func (p Persona) FormattedPhone() string {
	return fmt.Sprintf("(%s) %s-%s", p.Phone[:3], p.Phone[3:6], p.Phone[6:])
}

// Pronouns returns the (subject, object, possessive) pronouns for the
// persona's gender.
func (p Persona) Pronouns() (subj, obj, poss string) {
	if p.Gender == gender.Female {
		return "she", "her", "her"
	}
	return "he", "him", "his"
}

// NewPersona generates a persona from the random source. The gender split
// follows the paper's observed CTH target ratio (roughly 2:1 male:female
// among gender-resolvable targets, Table 10).
func NewPersona(rng *randx.Source) Persona {
	p := Persona{}
	if rng.Bool(2.0 / 3.0) {
		p.Gender = gender.Male
		p.FirstName = randx.Pick(rng, maleFirstNames)
	} else {
		p.Gender = gender.Female
		p.FirstName = randx.Pick(rng, femaleFirstNames)
	}
	p.LastName = randx.Pick(rng, lastNames)

	// Go evaluates the calls in each expression left to right, so the
	// random draws happen in the order they are written.
	p.StreetAddress = strconv.Itoa(rng.IntRange(1, 9999)) + " " +
		capitalize(randx.Pick(rng, streetNames)) + " " + randx.Pick(rng, streetSuffixes)
	p.City = randx.Pick(rng, cities)
	p.State = randx.Pick(rng, states)
	p.Zip = strconv.Itoa(rng.IntRange(10000, 99899))

	// Reserved fictional exchange: AAA-555-01XX.
	p.Phone = strconv.Itoa(rng.IntRange(2, 9)) + strconv.Itoa(rng.IntRange(12, 99)) +
		"555" + string(AppendZeroPadded(nil, 100+rng.Intn(100), 4))
	p.SSN = synthSSN(rng)
	p.Email = p.FirstName + "." + p.LastName + strconv.Itoa(rng.IntRange(1, 99)) + "@" + randx.Pick(rng, emailDomains)
	p.Card = synthCard(rng)

	// Handles carry numeric discriminators so distinct personas do not
	// collide (colliding handles would spuriously link unrelated doxes
	// in the §7.3 repeated-dox analysis).
	disc := strconv.Itoa(rng.IntRange(10, 99999))
	p.FacebookHandle = p.FirstName + "." + p.LastName + "." + disc
	p.InstagramHandle = p.FirstName + "_" + p.LastName + "_" + disc
	// Twitter usernames are at most 15 characters.
	tw := p.LastName
	if len(tw) > 8 {
		tw = tw[:8]
	}
	p.TwitterHandle = p.FirstName[:1] + "_" + tw + disc
	p.YouTubeHandle = p.FirstName + p.LastName + disc + "vlogs"

	p.Employer = randx.Pick(rng, employers)
	p.FamilyMember = randx.Pick(rng, familyMembers)
	return p
}

// synthSSN returns a format-valid synthetic SSN avoiding SSA-invalid
// ranges (area 000/666/9xx, group 00, serial 0000).
func synthSSN(rng *randx.Source) string {
	area := rng.IntRange(100, 665)
	if area == 666 {
		area = 667
	}
	group := rng.IntRange(1, 99)
	serial := rng.IntRange(1, 9999)
	b := AppendZeroPadded(make([]byte, 0, 11), area, 3)
	b = AppendZeroPadded(append(b, '-'), group, 2)
	return string(AppendZeroPadded(append(b, '-'), serial, 4))
}

// AppendZeroPadded appends the decimal form of n ≥ 0 to b, left-padded
// with zeros to width digits: the bytes of fmt's "%0<width>d".
func AppendZeroPadded(b []byte, n, width int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(n), 10)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// cardPrefixes are test-only IIN prefixes per network (the classic
// public test-number prefixes).
var cardPrefixes = []struct {
	prefix string
	length int
}{
	{"411111", 16}, // Visa test range
	{"555555", 16}, // Mastercard test range
	{"378282", 15}, // Amex test range
	{"601111", 16}, // Discover test range
}

// synthCard returns a Luhn-valid fictional card number in a test prefix.
func synthCard(rng *randx.Source) string {
	cp := randx.Pick(rng, cardPrefixes)
	b := append(make([]byte, 0, cp.length), cp.prefix...)
	for len(b) < cp.length-1 {
		b = append(b, byte('0'+rng.Intn(10)))
	}
	return string(append(b, pii.LuhnChecksumDigit(string(b))))
}
