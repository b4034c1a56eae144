// Package report renders the reproduction's tables and figures as
// aligned plain text (the form the benchmark harness prints) and CSV.
// ASCII CDF and distribution plots stand in for the paper's Figures 5
// and 6.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Headers) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i >= len(widths) {
				break
			}
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Pct renders a count as the paper's "12.34% (123)" cell format.
func Pct(count, total int) string {
	if total == 0 {
		return "0.00% (0)"
	}
	return fmt.Sprintf("%.2f%% (%d)", 100*float64(count)/float64(total), count)
}

// F renders a float with 2 decimals; NaN renders as "-".
func F(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}

// F3 renders a float with 3 decimals; NaN renders as "-".
func F3(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}

// CDFSeries is one line of a CDF plot.
type CDFSeries struct {
	Name string
	Xs   []float64 // sorted sample values
	Ps   []float64 // cumulative probabilities at Xs
}

// RenderCDF draws an ASCII CDF plot on a log-scaled x axis (matching
// Figure 5's log-scale thread-size axis), with one glyph per series.
func RenderCDF(title string, series []CDFSeries, width, height int) string {
	if width <= 10 {
		width = 72
	}
	if height <= 4 {
		height = 20
	}
	// Establish x range across series (log scale).
	minX, maxX := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, x := range s.Xs {
			if x < 1 {
				x = 1
			}
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
		}
	}
	if math.IsInf(minX, 1) || maxX <= minX {
		return title + "\n(no data)\n"
	}
	logMin, logMax := math.Log10(minX), math.Log10(maxX)

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	glyphs := []byte{'*', '+', 'o', 'x', '#', '@'}
	for si, s := range series {
		glyph := glyphs[si%len(glyphs)]
		for i, x := range s.Xs {
			if x < 1 {
				x = 1
			}
			col := int((math.Log10(x) - logMin) / (logMax - logMin) * float64(width-1))
			row := height - 1 - int(s.Ps[i]*float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = glyph
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for r, row := range grid {
		p := 1 - float64(r)/float64(height-1)
		fmt.Fprintf(&b, "%5.0f%% |%s\n", p*100, string(row))
	}
	fmt.Fprintf(&b, "       +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "        %-10.0f%*s\n", minX, width-10, fmt.Sprintf("%.0f (log x)", maxX))
	for si, s := range series {
		fmt.Fprintf(&b, "        %c %s\n", glyphs[si%len(glyphs)], s.Name)
	}
	return b.String()
}

// BoxStats are the quantile statistics behind one box of Figure 6.
type BoxStats struct {
	Name   string
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
}

// RenderBoxes renders per-category distribution summaries as an aligned
// table (the textual equivalent of Figure 6's box plots).
func RenderBoxes(title string, boxes []BoxStats) string {
	t := NewTable(title, "Category", "N", "Min", "Q1", "Median", "Q3", "Max")
	for _, bx := range boxes {
		t.AddRow(bx.Name, fmt.Sprintf("%d", bx.N), F(bx.Min), F(bx.Q1), F(bx.Median), F(bx.Q3), F(bx.Max))
	}
	return t.String()
}

// VennRow is one row of the Figure 2 overlap visualisation.
type VennRow struct {
	Risk  string
	Cells []bool // one per combination column
	Total int
}

// RenderVenn renders the Figure 2-style combination matrix: columns are
// risk combinations (with their counts), rows are risk categories, and
// filled cells mark membership.
func RenderVenn(title string, combos []string, counts []int, rows []VennRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	colW := 6
	fmt.Fprintf(&b, "%-22s", "sizes:")
	for _, c := range counts {
		fmt.Fprintf(&b, "%*d", colW, c)
	}
	fmt.Fprintf(&b, "  | total\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-22s", row.Risk)
		for _, filled := range row.Cells {
			mark := "."
			if filled {
				mark = "#"
			}
			fmt.Fprintf(&b, "%*s", colW, mark)
		}
		fmt.Fprintf(&b, "  | %d\n", row.Total)
	}
	fmt.Fprintf(&b, "%-22s", "combination:")
	for i := range combos {
		fmt.Fprintf(&b, "%*d", colW, i+1)
	}
	b.WriteString("\n")
	for i, c := range combos {
		fmt.Fprintf(&b, "  %2d: %s\n", i+1, c)
	}
	return b.String()
}

// RenderHistogram draws an ASCII histogram of values in [0, 1] with the
// given number of equal-width bins (used for classifier score
// distributions). Bar lengths are scaled to maxBar characters.
func RenderHistogram(title string, values []float64, bins, maxBar int) string {
	if bins <= 0 {
		bins = 10
	}
	if maxBar <= 0 {
		maxBar = 40
	}
	counts := make([]int, bins)
	for _, v := range values {
		b := int(v * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	peak := 1
	for _, c := range counts {
		if c > peak {
			peak = c
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d)\n", title, len(values))
	for i, c := range counts {
		bar := c * maxBar / peak
		fmt.Fprintf(&b, "  [%.1f,%.1f) %6d %s\n",
			float64(i)/float64(bins), float64(i+1)/float64(bins), c, strings.Repeat("#", bar))
	}
	return b.String()
}
