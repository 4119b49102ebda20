package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// spec is the JSON body of a release-shaped request.
type spec struct {
	DatasetID     string  `json:"dataset_id"`
	Workload      wlSpec  `json:"workload"`
	Epsilon       float64 `json:"epsilon"`
	Seed          int64   `json:"seed"`
	Strategy      string  `json:"strategy,omitempty"`
	SyntheticSeed int64   `json:"synthetic_seed,omitempty"`
	MaxOrder      int     `json:"max_order,omitempty"`
	// SkipConsistency asks for the raw recovered release, whose cell
	// variance the daemon reports exactly (it reports pre-consistency
	// variance), for the probe's noise-calibration check.
	SkipConsistency bool   `json:"skip_consistency,omitempty"`
	DebugTiming     bool   `json:"debug_timing,omitempty"`
	path            string // endpoint, not sent
	class           string // request class, not sent
}

type wlSpec struct {
	K         int     `json:"k,omitempty"`
	Marginals [][]int `json:"marginals,omitempty"`
}

// request is one prepared HTTP call of a run.
type request struct {
	class string
	path  string
	body  []byte
	hot   int // index into the hot set, or -1
}

func (s spec) request(traced bool, hot int) request {
	s.DebugTiming = traced
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a spec always marshals
	}
	return request{class: s.class, path: s.path, body: b, hot: hot}
}

var strategies = []string{"fourier", "workload", "identity", "cluster"}

// hotSet is the dashboard: 30 keys, well inside the daemon's 256-entry
// result cache, each charged once when the warm-up pass first computes it.
// Q1 runs under all four strategies at five privacy levels; Q2 under
// Fourier at three and under the three slower strategies at one; the
// 2-way cube at three; and one synthetic sample. Keeping the slow Q2
// strategies to one key each bounds the slow misses an append causes in
// append-live, so that workload's 99th percentile stays inside one class
// (see README.md).
func hotSet(seed uint64) []spec {
	base := int64(derive(seed, 11) >> 20)
	var out []spec
	n := int64(0)
	add := func(s spec) {
		s.DatasetID = "nltcs"
		s.Seed = base + n
		s.class = "hot"
		n++
		out = append(out, s)
	}
	for _, eps := range []float64{0.25, 0.5, 1, 2, 4} {
		for _, st := range strategies {
			add(spec{path: "/v1/release", Workload: wlSpec{K: 1}, Epsilon: eps, Strategy: st})
		}
	}
	for _, eps := range []float64{0.5, 1, 2} {
		add(spec{path: "/v1/release", Workload: wlSpec{K: 2}, Epsilon: eps, Strategy: "fourier"})
		add(spec{path: "/v1/cube", Epsilon: eps, MaxOrder: 2})
	}
	for _, st := range strategies[1:] {
		add(spec{path: "/v1/release", Workload: wlSpec{K: 2}, Epsilon: 1, Strategy: st})
	}
	add(spec{path: "/v1/synthetic", Workload: wlSpec{K: 2}, Epsilon: 1, Strategy: "fourier", SyntheticSeed: base})
	return out
}

// uniqueSeeds hands out request seeds no other request of the run uses, so
// every such request misses the result cache and charges the ledger.
type uniqueSeeds struct{ next int64 }

func newUniqueSeeds(seed uint64) *uniqueSeeds {
	return &uniqueSeeds{next: int64(derive(seed, 13)>>20) + 1<<40}
}

func (u *uniqueSeeds) take() int64 { u.next++; return u.next }

// coldClass is one request shape of the release-cold cycle.
type coldClass struct {
	name  string
	count int // occurrences per cycle
	make  func(u *uniqueSeeds, r *rng) spec
}

func release(ds, class, strategy string, k int, eps float64) func(u *uniqueSeeds, r *rng) spec {
	return func(u *uniqueSeeds, r *rng) spec {
		return spec{path: "/v1/release", class: class, DatasetID: ds, Workload: wlSpec{K: k},
			Epsilon: eps, Strategy: strategy, Seed: u.take()}
	}
}

// coldPlanner draws cluster workloads over explicit NLTCS marginal sets
// that never repeat within a run, so each one plans from scratch.
type coldPlanner struct{ seen map[string]bool }

func (c *coldPlanner) make(u *uniqueSeeds, r *rng) spec {
	for {
		set := randomPairs(r, 16, coldPlanPairs)
		key := fmt.Sprint(set)
		if c.seen[key] {
			continue
		}
		c.seen[key] = true
		return spec{path: "/v1/release", class: "nltcs.cluster.coldplan", DatasetID: "nltcs",
			Workload: wlSpec{Marginals: set}, Epsilon: 1, Strategy: "cluster", Seed: u.take()}
	}
}

// randomPairs draws m distinct attribute pairs over d attributes, in
// canonical order.
func randomPairs(r *rng, d, m int) [][]int {
	seen := map[[2]int]bool{}
	var out [][]int
	for len(out) < m {
		a, b := r.intn(d), r.intn(d)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		out = append(out, []int{a, b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// coldPlanPairs is the size of a cold-plan workload: enough 2-way
// marginals that the greedy clustering search is real work.
const coldPlanPairs = 40

// coldClasses is the release-cold cycle of 200 requests. Counts give each
// class a comparable share of the cycle's time, except that the cube and
// Fourier Q2 classes are weighted so the median falls inside
// nltcs.cube.2, and Adult Fourier (0.5%) and synthetic (1%) are sized so
// the 99th percentile falls in the middle of nltcs.synthetic (see
// README.md).
func coldClasses(cp *coldPlanner) []coldClass {
	return []coldClass{
		{"nltcs.fourier.q2", 69, release("nltcs", "nltcs.fourier.q2", "fourier", 2, 1)},
		{"nltcs.cube.2", 80, func(u *uniqueSeeds, r *rng) spec {
			return spec{path: "/v1/cube", class: "nltcs.cube.2", DatasetID: "nltcs", Epsilon: 1, MaxOrder: 2, Seed: u.take()}
		}},
		{"nltcs.cluster.coldplan", 12, cp.make},
		{"nltcs.fourier.q3", 14, release("nltcs", "nltcs.fourier.q3", "fourier", 3, 1)},
		{"nltcs.cluster.q2", 10, release("nltcs", "nltcs.cluster.q2", "cluster", 2, 1)},
		{"nltcs.workload.q2", 6, release("nltcs", "nltcs.workload.q2", "workload", 2, 1)},
		{"adult.cluster.q2", 3, release("adult", "adult.cluster.q2", "cluster", 2, 1)},
		{"nltcs.identity.q2", 3, release("nltcs", "nltcs.identity.q2", "identity", 2, 1)},
		{"nltcs.synthetic", 2, func(u *uniqueSeeds, r *rng) spec {
			s := u.take()
			return spec{path: "/v1/synthetic", class: "nltcs.synthetic", DatasetID: "nltcs", Workload: wlSpec{K: 2},
				Epsilon: 1, Strategy: "fourier", Seed: s, SyntheticSeed: s}
		}},
		{"adult.fourier.q2", 1, release("adult", "adult.fourier.q2", "fourier", 2, 1)},
	}
}

// coldClassNames lists every release-cold class, for per-class metrics.
func coldClassNames() []string {
	var out []string
	for _, c := range coldClasses(nil) {
		out = append(out, c.name)
	}
	return out
}

// coldSequence builds n release-cold requests: the class cycle in one
// seeded order, repeated, every request with a fresh seed.
func coldSequence(seed uint64, n int, u *uniqueSeeds, cp *coldPlanner) []spec {
	classes := coldClasses(cp)
	var cycle []int
	for i, c := range classes {
		for j := 0; j < c.count; j++ {
			cycle = append(cycle, i)
		}
	}
	r := newRNG(derive(seed, 17))
	for i := len(cycle) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		cycle[i], cycle[j] = cycle[j], cycle[i]
	}
	out := make([]spec, n)
	for i := range out {
		out[i] = classes[cycle[i%len(cycle)]].make(u, r)
	}
	return out
}

// coldWarmup is one request of every release-cold class, with seeds the
// timed phase never uses.
func coldWarmup(u *uniqueSeeds, cp *coldPlanner, r *rng) []spec {
	var out []spec
	for _, c := range coldClasses(cp) {
		out = append(out, c.make(u, r))
	}
	return out
}

// probeSet is the fixed accuracy probe: NLTCS Q2 under all four
// strategies, probeSeeds seeds each as served (consistent; rel_error), and
// the first rawSeeds of those again raw (the noise-calibration check). It
// depends only on the run seed, so rel_error repeats exactly for a
// bit-identical program.
func probeSet(seed uint64) []spec {
	base := int64(derive(seed, 19)>>20) + 1<<42
	var out []spec
	for i := int64(0); i < probeSeeds; i++ {
		for j, st := range strategies {
			s := spec{path: "/v1/release", class: "probe", DatasetID: "nltcs",
				Workload: wlSpec{K: 2}, Epsilon: 1, Strategy: st, Seed: base + 4*i + int64(j)}
			out = append(out, s)
			if i < rawSeeds {
				s.SkipConsistency = true
				out = append(out, s)
			}
		}
	}
	return out
}

// Twelve seeds per strategy average enough independent noise that
// rel_error's spread across run seeds stays well inside its bound.
const (
	probeSeeds = 12
	rawSeeds   = 3
)
