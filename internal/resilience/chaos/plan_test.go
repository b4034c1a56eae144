package chaos

import (
	"strings"
	"testing"
	"time"
)

func TestParsePlanRoundTrip(t *testing.T) {
	got, err := ParsePlan(" seed=7, panic=0.02,transient=0.05,poison=0.001,latency=0.25,latency-ms=20 ")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 7, PanicRate: 0.02, TransientRate: 0.05, PermanentRate: 0.001,
		LatencyRate: 0.25, Latency: 20 * time.Millisecond}
	if got.Seed != want.Seed || got.PanicRate != want.PanicRate || got.TransientRate != want.TransientRate ||
		got.PermanentRate != want.PermanentRate || got.LatencyRate != want.LatencyRate || got.Latency != want.Latency ||
		got.TruncateRate != 0 || got.Truncate != nil {
		t.Fatalf("plan = %+v, want %+v", *got, want)
	}
	if p, err := ParsePlan("  "); err != nil || p != nil {
		t.Fatalf("empty spec = (%v, %v), want (nil, nil)", p, err)
	}
	for _, bad := range []string{"panic=2", "poison=-0.1", "seed=x", "latency-ms=-1", "latency-ms=x", "nope=1", "panic"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted, want error", bad)
		}
	}
}

// A plan written for the shard fleet fails with a message naming the key
// that went away, instead of running with fewer faults than it asks for.
func TestParsePlanNamesRemovedKeys(t *testing.T) {
	for _, old := range []string{
		"seed=7,panic=0.05,stall=0.01,spike=0.08,spike-ms=5,shards=0,max-faults=60",
		"seed=3,panic=0.03,shards=0",
		"spike=0.1",
		"max-faults=4",
	} {
		_, err := ParsePlan(old)
		if err == nil {
			t.Errorf("ParsePlan(%q) accepted an old shard-level plan", old)
			continue
		}
		named := false
		for key := range removedPlanKeys {
			if strings.Contains(err.Error(), `"`+key+`" was removed`) && strings.Contains(old, key+"=") {
				named = true
			}
		}
		if !named {
			t.Errorf("ParsePlan(%q) = %v, want the removed key named", old, err)
		}
	}
}
