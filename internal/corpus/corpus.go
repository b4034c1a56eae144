// Package corpus generates and models the five platform data sets the
// paper analyses (Table 1): boards, blogs, chat (Discord + Telegram), Gab
// and pastes. Real crawls are proprietary; the generators substitute
// synthetic documents whose statistical structure is parameterized
// directly by the paper's published distributions — per-platform attack
// mixtures (Table 11), PII mixtures (Table 6), target-gender mixtures
// (Table 10), true-positive volumes (Table 4), thread-position behaviour
// (§6.3, §7.4) and repeated-dox structure (§7.3). See DESIGN.md §1.
//
// Each document carries hidden ground truth, which the pipeline never
// reads during filtering; it is used only to simulate annotators and to
// score the pipeline end-to-end.
package corpus

import (
	"time"

	"harassrepro/internal/gender"
	"harassrepro/internal/pii"
	"harassrepro/internal/randx"
	"harassrepro/internal/synth"
	"harassrepro/internal/taxonomy"
)

// Dataset identifies one of the five raw data sets of Table 1.
type Dataset string

// The five data sets.
const (
	Boards Dataset = "boards"
	Blogs  Dataset = "blogs"
	Chat   Dataset = "chat"
	Gab    Dataset = "gab"
	Pastes Dataset = "pastes"
)

// Datasets lists the data sets in Table 1 order.
func Datasets() []Dataset { return []Dataset{Boards, Blogs, Chat, Gab, Pastes} }

// Platform identifies the concrete platform within a data set; the paper
// splits "chat" into Discord and Telegram for thresholding (Table 4).
type Platform string

// Platforms. For boards, Gab, pastes and blogs the platform matches the
// data set.
const (
	PlatformBoards   Platform = "boards"
	PlatformBlogs    Platform = "blogs"
	PlatformDiscord  Platform = "discord"
	PlatformTelegram Platform = "telegram"
	PlatformGab      Platform = "gab"
	PlatformPastes   Platform = "pastes"
)

// Dataset returns the data set a platform belongs to.
func (p Platform) Dataset() Dataset {
	switch p {
	case PlatformDiscord, PlatformTelegram:
		return Chat
	case PlatformBlogs:
		return Blogs
	case PlatformGab:
		return Gab
	case PlatformPastes:
		return Pastes
	default:
		return Boards
	}
}

// GroundTruth is the hidden label set attached to generated documents.
type GroundTruth struct {
	// IsCTH marks a true call to harassment.
	IsCTH bool
	// IsDox marks a true dox.
	IsDox bool
	// CTHLabel is the planted taxonomy coding (valid when IsCTH).
	CTHLabel taxonomy.Label
	// DoxPII lists the PII types planted in the dox (valid when IsDox).
	DoxPII []pii.Type
	// TargetID identifies the persona targeted; doxes of the same
	// persona are "repeated doxes" in §7.3. Zero means no target.
	TargetID int
	// TargetGender is the persona's actual gender (which pronoun-based
	// inference may or may not recover).
	TargetGender gender.Gender
	// HardNegative marks benign text deliberately shaped like
	// mobilizing language (classifier stress content).
	HardNegative bool
}

// Document is one post or message.
type Document struct {
	ID       string
	Dataset  Dataset
	Platform Platform
	// Domain is the site/channel the document was collected from
	// (board domain, paste site, chat channel, blog).
	Domain string
	// ThreadID groups board posts into threads; empty elsewhere.
	ThreadID string
	// PosInThread is the 0-based position within the thread (boards).
	PosInThread int
	// ThreadSize is the total posts in the document's thread (boards).
	ThreadSize int
	Author     string
	// Date is the synthetic collection date, YYYY-MM-DD.
	Date string
	Text string

	Truth GroundTruth
}

// Corpus is an in-memory document collection for one data set.
type Corpus struct {
	Dataset Dataset
	Docs    []Document
}

// Len returns the number of documents.
func (c *Corpus) Len() int { return len(c.Docs) }

// Filter returns the documents matching pred.
func (c *Corpus) Filter(pred func(*Document) bool) []*Document {
	var out []*Document
	for i := range c.Docs {
		if pred(&c.Docs[i]) {
			out = append(out, &c.Docs[i])
		}
	}
	return out
}

// DatasetDates holds the Table 1 collection date ranges.
var DatasetDates = map[Dataset][2]string{
	Boards: {"2001-06-14", "2020-08-01"},
	Blogs:  {"1999-04-23", "2020-08-14"},
	Chat:   {"2015-09-21", "2020-08-01"},
	Gab:    {"2016-08-10", "2020-08-01"},
	Pastes: {"2008-03-22", "2020-08-01"},
}

// RawSizes holds the Table 1 raw data set sizes (posts/messages).
var RawSizes = map[Dataset]int{
	Boards: 405_943_342,
	Blogs:  115_052,
	Chat:   70_273_973,
	Gab:    50_165_961,
	Pastes: 32_555_682,
}

// datasetSpans holds DatasetDates parsed once.
var datasetSpans = func() map[Dataset][2]time.Time {
	m := make(map[Dataset][2]time.Time, len(DatasetDates))
	for ds, r := range DatasetDates {
		lo, _ := time.Parse(time.DateOnly, r[0])
		hi, _ := time.Parse(time.DateOnly, r[1])
		m[ds] = [2]time.Time{lo, hi}
	}
	return m
}()

// dateFor interpolates a YYYY-MM-DD date at fraction f within the data
// set's Table 1 range.
func dateFor(ds Dataset, f float64) string {
	r := datasetSpans[ds]
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	d := r[0].Add(time.Duration(f * float64(r[1].Sub(r[0]))))
	return d.Format("2006-01-02")
}

// docID builds a stable document identifier.
func docID(p Platform, n int) string {
	b := append(make([]byte, 0, len(p)+9), p...)
	return string(synth.AppendZeroPadded(append(b, '-'), n, 8))
}

// sub11 holds the Table 11 per-data-set subcategory prevalence (percent).
// Columns: boards, chat, gab. Used as the planted attack-type mixture.
var sub11 = map[taxonomy.Sub][3]float64{
	taxonomy.SubDoxing:               {17.46, 12.46, 20.82},
	taxonomy.SubLeakedChats:          {0.88, 0.10, 0.45},
	taxonomy.SubNonConsensual:        {5.09, 2.40, 1.72},
	taxonomy.SubOutingDeadnaming:     {0.20, 0.07, 0.001},
	taxonomy.SubDoxPropagation:       {1.42, 5.78, 0.60},
	taxonomy.SubContentLeakMisc:      {0.54, 0.28, 0.07},
	taxonomy.SubImpersonatedProfiles: {2.20, 1.32, 0.97},
	taxonomy.SubSyntheticPorn:        {0.44, 0.03, 0.07},
	taxonomy.SubImpersonationMisc:    {0.29, 0.07, 0.15},
	taxonomy.SubAccountLockout:       {0.10, 0.10, 0.001},
	taxonomy.SubLockoutMisc:          {0.15, 0.07, 0.001},
	taxonomy.SubNegativeRatings:      {0.24, 0.31, 0.37},
	taxonomy.SubRaiding:              {4.35, 12.87, 18.28},
	taxonomy.SubSpamming:             {0.88, 0.77, 1.20},
	taxonomy.SubOverloadingMisc:      {0.59, 0.52, 0.001},
	taxonomy.SubHashtagHijacking:     {0.78, 1.39, 1.65},
	taxonomy.SubPublicOpinionMisc:    {6.16, 1.74, 0.07},
	taxonomy.SubFalseReporting:       {20.00, 10.82, 11.76},
	taxonomy.SubMassFlagging:         {20.39, 31.63, 12.66},
	taxonomy.SubReportingMisc:        {15.94, 10.06, 16.40},
	taxonomy.SubReputationPrivate:    {3.13, 4.45, 1.80},
	taxonomy.SubReputationPublic:     {1.96, 8.35, 8.84},
	taxonomy.SubReputationMisc:       {2.74, 0.07, 0.07},
	taxonomy.SubStalkingTracking:     {0.49, 0.49, 0.30},
	taxonomy.SubSurveillanceMisc:     {0.24, 0.001, 0.07},
	taxonomy.SubHateSpeech:           {3.86, 1.98, 4.42},
	taxonomy.SubUnwantedExplicit:     {2.20, 0.31, 0.15},
	taxonomy.SubToxicMisc:            {1.56, 0.24, 0.001},
	taxonomy.SubGeneric:              {7.14, 5.60, 4.57},
}

// subSamplers holds the planted attack-type sampler for each Table 11
// column and Table 10 gender column, [t11][genderColumn(g)]: the
// column's weights over subSamplerSubs tilted by target gender.
var subSamplerSubs = taxonomy.Subs()
var subSamplers = func() (out [3][3]*randx.Weighted) {
	for col := range out {
		for gcol, g := range []gender.Gender{gender.Unknown, gender.Female, gender.Male} {
			weights := make([]float64, len(subSamplerSubs))
			for i, s := range subSamplerSubs {
				weights[i] = sub11[s][col] * genderTilt(s, g)
				if weights[i] <= 0 {
					weights[i] = 1e-6
				}
			}
			out[col][gcol] = randx.NewWeighted(weights)
		}
	}
	return out
}()

// pii6 holds the Table 6 per-data-set PII prevalence (percent).
// Columns: boards, chat, gab, pastes.
var pii6 = map[pii.Type][4]float64{
	pii.Address:    {29.34, 29.61, 18.04, 45.67},
	pii.CreditCard: {0.16, 4.27, 0.001, 4.94},
	pii.Email:      {14.87, 14.71, 20.04, 45.35},
	pii.Facebook:   {12.44, 6.36, 6.04, 39.32},
	pii.Instagram:  {4.20, 3.27, 0.60, 9.97},
	pii.Phone:      {22.17, 26.98, 30.24, 45.51},
	pii.SSN:        {0.71, 1.36, 0.42, 3.98},
	pii.Twitter:    {9.30, 3.45, 6.28, 13.63},
	pii.YouTube:    {8.24, 2.00, 1.09, 11.80},
}

// piiTypes is the order samplePII draws PII types in, and piiRates
// each Table 6 column as per-type probabilities in that order.
var piiTypes = pii.AllTypes()
var piiRates = func() (out [4][]float64) {
	for col := range out {
		out[col] = make([]float64, len(piiTypes))
		for i, t := range piiTypes {
			out[col][i] = pii6[t][col] / 100
		}
	}
	return out
}()

// tableColumns returns a platform's column in Table 6 (boards, chat,
// gab, pastes) and in Table 11 (boards, chat, gab; pastes and blogs
// take the boards column).
func tableColumns(p Platform) (t6, t11 int) {
	switch p {
	case PlatformDiscord, PlatformTelegram:
		return 1, 1
	case PlatformGab:
		return 2, 2
	case PlatformPastes:
		return 3, 0
	}
	return 0, 0
}

// Gender mixture over calls to harassment (Table 10 totals):
// unknown 2,711 / female 1,160 / male 2,383 of 6,254. The generator
// realises "unknown" by neutral pronouns.
const neutralPronounRate = 2711.0 / 6254.0

// Multi-attack-type mixture (§6.2): 13% of calls to harassment carry more
// than one parent type; of those 92.3% carry two and 6.5% three.
const (
	multiTypeRate  = 831.0 / 6254.0
	threeTypeShare = 54.0 / 831.0
	fourTypeShare  = 10.0 / 831.0
)

// Observed co-occurrence couplings (§6.2): 64% of surveillance calls also
// leak content; 30% of impersonation calls also manipulate public
// opinion.
const (
	surveillanceLeakRate  = 0.64
	impersonationPOMShare = 0.30
)

// doxStyleFor maps a platform to its dox rendering style.
func doxStyleFor(p Platform) synth.DoxStyle {
	switch p {
	case PlatformPastes:
		return synth.DoxStylePaste
	case PlatformDiscord, PlatformTelegram:
		return synth.DoxStyleChat
	case PlatformGab:
		return synth.DoxStyleMicro
	default:
		return synth.DoxStyleBoard
	}
}

// benignFlavorFor maps a platform to its benign chatter flavor.
func benignFlavorFor(p Platform) synth.Flavor {
	switch p {
	case PlatformPastes:
		return synth.FlavorPaste
	case PlatformDiscord, PlatformTelegram:
		return synth.FlavorChat
	case PlatformGab:
		return synth.FlavorMicro
	case PlatformBlogs:
		return synth.FlavorBlog
	default:
		return synth.FlavorBoard
	}
}
