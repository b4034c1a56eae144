package main

import (
	"fmt"
	"math"
	"os"

	"harassrepro/bench/benchkit"
)

// runAA measures the benchmark against itself: two sets of n runs per
// workload of this one tree, at seeds seed..seed+n-1 in both sets. For
// every workload × end-to-end metric it prints each set's median and
// run-to-run spread (interquartile distance over the median) and how
// far the second median is worse than the first, next to the metric's
// bound. It reports false when a spread (set-up time excepted: it is
// compared by median only) or a shift is outside the bound — the
// benchmark could not then tell a real regression of that size from
// its own noise.
func runAA(root string, spec *benchkit.Spec, names []string, seed uint64, n int, extra []string) (bool, error) {
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	for s := range sets {
		sets[s] = map[key][]float64{}
		for _, name := range names {
			for i := 0; i < n; i++ {
				rr, err := runChild(root, name, seed+uint64(i), 0, extra)
				if err != nil {
					return false, err
				}
				if !rr.Line.Correct {
					return false, fmt.Errorf("%s seed %d: %d of %d operations failed verification: %s", name, seed+uint64(i), rr.Line.Failed, rr.Line.Attempted, rr.Notes["first_failure"])
				}
				fmt.Fprintf(os.Stderr, "aa: set %c %s seed %d:", 'A'+s, name, seed+uint64(i))
				for _, m := range spec.EndToEnd {
					k := key{name, m.Name}
					sets[s][k] = append(sets[s][k], rr.Line.Metrics[m.Name].Value)
					fmt.Fprintf(os.Stderr, " %s=%.6g", m.Name, rr.Line.Metrics[m.Name].Value)
				}
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	ok := true
	fmt.Printf("%-20s %-16s %14s %14s %9s %9s %9s %7s  %s\n", "workload", "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound", "verdict")
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			a, b := sets[0][key{name, m.Name}], sets[1][key{name, m.Name}]
			ma, mb := benchkit.Median(a), benchkit.Median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := benchkit.Spread(a), benchkit.Spread(b)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "SHIFT OUTSIDE BOUND"
			case m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound):
				verdict = "SPREAD OUTSIDE BOUND"
			case m.Name != "setup_s" && (sa > m.Bound/3 || sb > m.Bound/3):
				verdict = "ok (spread above a third of the bound)"
			}
			if verdict[0] != 'o' {
				ok = false
			}
			fmt.Printf("%-20s %-16s %14.6g %14.6g %8.2f%% %8s %8s %6.1f%%  %s\n",
				name, m.Name, ma, mb, 100*worse, pctOrDash(sa), pctOrDash(sb), 100*m.Bound, verdict)
		}
	}
	return ok, nil
}

func pctOrDash(x float64) string {
	if math.IsNaN(x) {
		return "-"
	}
	return fmt.Sprintf("%.2f%%", 100*x)
}
