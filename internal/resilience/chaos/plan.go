package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// planKeys lists what ParsePlan accepts, for its error messages.
const planKeys = "seed, panic, transient, poison, latency, latency-ms"

// removedPlanKeys are the keys of the shard-level fault plan that
// `harassd -chaos` took while the service scored on a shard fleet. They
// are rejected by name so an old plan fails loudly instead of running
// with fewer faults than its author meant.
var removedPlanKeys = map[string]string{
	"shards":     "there is no shard fleet to target; faults are per document",
	"stall":      "a stall is a latency fault longer than the request deadline: use latency and latency-ms",
	"spike":      "renamed latency",
	"spike-ms":   "renamed latency-ms",
	"max-faults": "per-document faults kill nothing that has to recover, so no budget is needed to converge",
}

// ParsePlan parses the `harassd -chaos` flag syntax into the Config
// every scoring stage is wrapped with: comma-separated key=value pairs,
// e.g.
//
//	seed=7,panic=0.02,transient=0.05,poison=0.001,latency=0.05,latency-ms=20
//
// Keys: seed (uint), panic/transient/latency (per-attempt probabilities
// in [0,1]), poison (per-document probability of failing every
// attempt), latency-ms (injected delay, milliseconds). An empty spec
// returns (nil, nil): chaos disabled.
func ParsePlan(spec string) (*Config, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	cfg := &Config{}
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		key, val, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("chaos: bad plan entry %q: want key=value", pair)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "seed":
			u, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad seed %q: %w", val, err)
			}
			cfg.Seed = u
		case "panic", "transient", "poison", "latency":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return nil, fmt.Errorf("chaos: bad rate %s=%q: want a probability in [0,1]", key, val)
			}
			switch key {
			case "panic":
				cfg.PanicRate = f
			case "transient":
				cfg.TransientRate = f
			case "poison":
				cfg.PermanentRate = f
			case "latency":
				cfg.LatencyRate = f
			}
		case "latency-ms":
			ms, err := strconv.Atoi(val)
			if err != nil || ms < 0 {
				return nil, fmt.Errorf("chaos: bad latency-ms %q", val)
			}
			cfg.Latency = time.Duration(ms) * time.Millisecond
		default:
			if why, removed := removedPlanKeys[key]; removed {
				return nil, fmt.Errorf("chaos: plan key %q was removed (%s); want %s", key, why, planKeys)
			}
			return nil, fmt.Errorf("chaos: unknown plan key %q (want %s)", key, planKeys)
		}
	}
	return cfg, nil
}
