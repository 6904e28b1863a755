// Package faults is the deterministic failure-injection engine: from one
// seed it generates a replayable fault schedule (node crashes and
// recoveries, correlated rack-style group failures) and answers per-attempt
// fault queries (job crash points, straggler slowdowns) by pure hashing, so
// the same seed always produces the bitwise-same failure history regardless
// of host load, GOMAXPROCS, or the order in which sharded domains finish
// their cycles.
//
// The paper's whole premise is scheduling under runtime uncertainty;
// failure-induced reruns and node churn are exactly the runtime
// perturbations §3–§4 argue a distribution-based scheduler should absorb.
// The simulator replays the schedule on its virtual clock
// (simulator.Options.Faults) and the online daemon replays it on virtual
// wall time (service.Config.Faults); both drive the same node-lifecycle
// layer in simulator.Engine.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"threesigma/internal/job"
	"threesigma/internal/stats"
)

// Config parameterizes fault injection. The zero value disables every fault
// class; fill-in defaults only apply to the knobs of an enabled class.
type Config struct {
	// Seed drives the whole schedule; identical configs produce identical
	// fault histories.
	Seed int64

	// NodeMTBF is the per-node mean time between failures in seconds
	// (0 disables node faults). A partition with k nodes fails at mean
	// interval NodeMTBF/k, so bigger partitions churn proportionally more.
	NodeMTBF float64
	// NodeMTTR is the mean node repair time in seconds (default 300).
	NodeMTTR float64
	// GroupProb is the probability that a failure is correlated and takes
	// GroupSize nodes at once (rack/switch-style blast radius).
	GroupProb float64
	// GroupSize is the node count of a correlated failure (default 4).
	GroupSize int

	// CrashProb is the per-attempt probability that a job attempt crashes
	// partway through instead of completing (0 disables job crashes).
	CrashProb float64

	// StragglerProb is the per-job probability of a straggler slowdown;
	// affected jobs run StragglerFactor× longer (default factor 2).
	StragglerProb   float64
	StragglerFactor float64

	// MaxRetries bounds failure-induced restarts per job: after this many
	// evictions (node loss or crash) the job fails out terminally instead of
	// requeueing (default 3; <0 means unlimited).
	MaxRetries int

	// Horizon is the schedule length in virtual seconds for callers without
	// a natural end time (the online daemon, default 86400). The simulator
	// passes its own run horizon and ignores this field.
	Horizon float64
}

func (c *Config) fill() {
	if c.NodeMTTR <= 0 {
		c.NodeMTTR = 300
	}
	if c.GroupSize <= 0 {
		c.GroupSize = 4
	}
	if c.StragglerFactor <= 1 {
		c.StragglerFactor = 2
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.Horizon <= 0 {
		c.Horizon = 86400
	}
}

// Enabled reports whether any fault class is active.
func (c Config) Enabled() bool {
	return c.NodeMTBF > 0 || c.CrashProb > 0 || c.StragglerProb > 0
}

// EventKind is a node-lifecycle transition in the fault schedule.
type EventKind uint8

// Schedule event kinds.
const (
	// NodeFail takes Nodes nodes of Partition down, evicting their jobs.
	NodeFail EventKind = iota
	// NodeRecover returns Nodes nodes of Partition to service.
	NodeRecover
)

// String names the kind.
func (k EventKind) String() string {
	if k == NodeFail {
		return "fail"
	}
	return "recover"
}

// Event is one timed node-lifecycle transition.
type Event struct {
	Time      float64
	Kind      EventKind
	Partition int
	Nodes     int
}

// Injector holds one generated fault schedule plus the hash state for
// per-attempt queries. It is immutable after New and safe for concurrent
// reads.
type Injector struct {
	cfg    Config
	events []Event
}

// New generates the fault schedule for a cluster with the given partition
// sizes over [0, horizon) seconds. horizon <= 0 falls back to cfg.Horizon.
func New(cfg Config, partitions []int, horizon float64) *Injector {
	cfg.fill()
	if horizon <= 0 {
		horizon = cfg.Horizon
	}
	in := &Injector{cfg: cfg}
	if cfg.NodeMTBF > 0 {
		for p, nodes := range partitions {
			if nodes <= 0 {
				continue
			}
			// One stream per partition so adding a partition never perturbs
			// the others' schedules.
			rng := stats.NewRand(cfg.Seed*1000003 + int64(p)*7919 + 11)
			mean := cfg.NodeMTBF / float64(nodes)
			for t := 0.0; ; {
				gap := stats.Exponential(rng, mean)
				if gap < 1 {
					gap = 1
				}
				t += gap
				if t >= horizon {
					break
				}
				n := 1
				if cfg.GroupProb > 0 && rng.Float64() < cfg.GroupProb {
					n = cfg.GroupSize
				}
				dur := stats.Exponential(rng, cfg.NodeMTTR)
				if dur < 1 {
					dur = 1
				}
				in.events = append(in.events,
					Event{Time: t, Kind: NodeFail, Partition: p, Nodes: n},
					Event{Time: t + dur, Kind: NodeRecover, Partition: p, Nodes: n})
			}
		}
	}
	sort.SliceStable(in.events, func(i, j int) bool {
		a, b := in.events[i], in.events[j]
		//lint:allow floateq exact tie-break: equal-bits event times fall through to the deterministic kind/partition order
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Kind != b.Kind {
			// Recoveries first on ties, so capacity is returned before it is
			// taken again.
			return a.Kind == NodeRecover
		}
		if a.Partition != b.Partition {
			return a.Partition < b.Partition
		}
		return a.Nodes < b.Nodes
	})
	return in
}

// Config returns the effective (default-filled) configuration.
func (in *Injector) Config() Config { return in.cfg }

// Events returns the node-lifecycle schedule in time order. Callers must
// not mutate it.
func (in *Injector) Events() []Event { return in.events }

// Hash tags separating the independent per-attempt fault streams.
const (
	tagCrash     = 0x1b873593_9e3779b9
	tagCrashFrac = 0x85ebca6b_c2b2ae35
	tagStraggler = 0x27d4eb2f_165667b1
)

// hash01 maps (seed, tag, id, attempt) to a uniform float64 in [0,1) via a
// splitmix64 finalizer — the stateless replacement for an RNG stream, so
// fault decisions depend only on their inputs and never on event order.
func (in *Injector) hash01(tag uint64, id job.ID, attempt int) float64 {
	x := uint64(in.cfg.Seed)*0x9E3779B97F4A7C15 + tag
	x ^= uint64(id) * 0xBF58476D1CE4E5B9
	x ^= uint64(attempt+1) * 0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// CrashPoint reports whether the attempt-th run of job id crashes, and if
// so at which fraction of its (effective) runtime, in [0.1, 0.9]. Attempts
// are numbered from 0; each attempt's fate is independent.
func (in *Injector) CrashPoint(id job.ID, attempt int) (frac float64, crashes bool) {
	if in.cfg.CrashProb <= 0 || in.hash01(tagCrash, id, attempt) >= in.cfg.CrashProb {
		return 0, false
	}
	return 0.1 + 0.8*in.hash01(tagCrashFrac, id, attempt), true
}

// Slowdown returns the job's straggler runtime multiplier (1 for healthy
// jobs). The decision is per job, not per attempt: a straggler stays slow
// across restarts, modeling a bad input split or data skew.
func (in *Injector) Slowdown(id job.ID) float64 {
	if in.cfg.StragglerProb <= 0 || in.hash01(tagStraggler, id, 0) >= in.cfg.StragglerProb {
		return 1
	}
	return in.cfg.StragglerFactor
}

// MaxRetries returns the effective retry budget (0 means unlimited).
func (in *Injector) MaxRetries() int {
	if in.cfg.MaxRetries < 0 {
		return 0
	}
	return in.cfg.MaxRetries
}

// ParseSpec parses a fault scenario spec: either a preset name ("light",
// "heavy") or a comma-separated k=v list:
//
//	seed=7,mtbf=1800,mttr=300,group=0.2:4,crash=0.05,straggler=0.1:2.5,retries=3
//
// mtbf/mttr are seconds; group is probability:size; straggler is
// probability:factor. Unknown keys are errors so typos fail loudly.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	switch strings.TrimSpace(spec) {
	case "":
		return cfg, nil
	case "light":
		return Config{NodeMTBF: 7200, NodeMTTR: 300, GroupProb: 0.1, GroupSize: 4,
			CrashProb: 0.02, StragglerProb: 0.05, StragglerFactor: 2, MaxRetries: 3}, nil
	case "heavy":
		return Config{NodeMTBF: 1800, NodeMTTR: 600, GroupProb: 0.25, GroupSize: 8,
			CrashProb: 0.08, StragglerProb: 0.1, StragglerFactor: 3, MaxRetries: 3}, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return cfg, fmt.Errorf("faults: bad spec entry %q (want key=value)", kv)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		num := func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(v, 10, 64)
		case "mtbf":
			cfg.NodeMTBF, err = num(v)
		case "mttr":
			cfg.NodeMTTR, err = num(v)
		case "group":
			p, sz, found := strings.Cut(v, ":")
			if cfg.GroupProb, err = num(p); err == nil && found {
				cfg.GroupSize, err = strconv.Atoi(sz)
			}
		case "crash":
			cfg.CrashProb, err = num(v)
		case "straggler":
			p, f, found := strings.Cut(v, ":")
			if cfg.StragglerProb, err = num(p); err == nil && found {
				cfg.StragglerFactor, err = num(f)
			}
		case "retries":
			cfg.MaxRetries, err = strconv.Atoi(v)
		case "horizon":
			cfg.Horizon, err = num(v)
		default:
			return cfg, fmt.Errorf("faults: unknown spec key %q", k)
		}
		if err != nil {
			return cfg, fmt.Errorf("faults: bad value for %q: %v", k, err)
		}
	}
	return cfg, nil
}
