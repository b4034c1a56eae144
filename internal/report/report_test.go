package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "A", "Bee", "C")
	tb.AddRow("1", "2", "3")
	tb.AddRow("longcell", "x") // short row padded
	out := tb.String()
	if !strings.Contains(out, "Title") {
		t.Error("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, headers, separator, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Columns aligned: header A starts where 1 and longcell start.
	if !strings.HasPrefix(lines[1], "A") || !strings.HasPrefix(lines[3], "1") {
		t.Errorf("alignment broken:\n%s", out)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(1, 4); got != "25.00% (1)" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct(3, 0); got != "0.00% (0)" {
		t.Errorf("Pct zero total = %q", got)
	}
}

func TestFloatFormatting(t *testing.T) {
	if F(1.234) != "1.23" || F3(1.2345) != "1.234" {
		t.Error("float formats wrong")
	}
	if F(math.NaN()) != "-" || F3(math.NaN()) != "-" {
		t.Error("NaN should render as -")
	}
}

func TestRenderCDF(t *testing.T) {
	series := []CDFSeries{
		{Name: "CTH", Xs: []float64{1, 10, 100, 1000}, Ps: []float64{0.25, 0.5, 0.75, 1}},
		{Name: "Baseline", Xs: []float64{1, 5, 50, 500}, Ps: []float64{0.3, 0.6, 0.9, 1}},
	}
	out := RenderCDF("Figure 5", series, 60, 12)
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "CTH") || !strings.Contains(out, "Baseline") {
		t.Errorf("CDF output incomplete:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Error("series glyphs missing")
	}
	if !strings.Contains(out, "100%") {
		t.Error("y axis missing")
	}
}

func TestRenderCDFEmpty(t *testing.T) {
	out := RenderCDF("Empty", nil, 40, 10)
	if !strings.Contains(out, "no data") {
		t.Errorf("empty CDF = %q", out)
	}
}

func TestRenderBoxes(t *testing.T) {
	out := RenderBoxes("Figure 6", []BoxStats{
		{Name: "Report.", N: 100, Min: 1, Q1: 5, Median: 20, Q3: 80, Max: 900},
	})
	if !strings.Contains(out, "Report.") || !strings.Contains(out, "20.00") {
		t.Errorf("boxes output:\n%s", out)
	}
}

func TestRenderVenn(t *testing.T) {
	out := RenderVenn("Figure 2",
		[]string{"Online", "Online+Physical"},
		[]int{100, 50},
		[]VennRow{
			{Risk: "Online", Cells: []bool{true, true}, Total: 150},
			{Risk: "Physical", Cells: []bool{false, true}, Total: 50},
		})
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "#") || !strings.Contains(out, "| 150") {
		t.Errorf("venn output:\n%s", out)
	}
}
