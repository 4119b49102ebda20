package accountant

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

func testRegistry(t *testing.T, epsCap, delCap float64, keys map[string]KeyCaps) *Registry {
	t.Helper()
	r, err := NewRegistry(epsCap, delCap, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, caps := range keys {
		if err := r.SetKeyCaps(k, caps); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestPerKeyIndependence: one key hitting its own cap never blocks another
// key, and the global ledger sees every admitted charge exactly once.
func TestPerKeyIndependence(t *testing.T) {
	r := testRegistry(t, 10, 0, map[string]KeyCaps{
		"alice": {Epsilon: 1},
		"bob":   {Epsilon: 5},
	})
	if err := r.Charge("alice", Charge{Label: "a1", Epsilon: 0.9}); err != nil {
		t.Fatal(err)
	}
	err := r.Charge("alice", Charge{Label: "a2", Epsilon: 0.9})
	// The refusing key is named by fingerprint: registry keys are tenant
	// credentials in the serving deployment, so error text never carries
	// the raw value.
	if !errors.Is(err, ErrBudgetExceeded) || !strings.Contains(err.Error(), RedactKey("alice")) {
		t.Fatalf("alice past her cap: %v", err)
	}
	if strings.Contains(err.Error(), `"alice"`) {
		t.Fatalf("refusal leaks the raw key: %v", err)
	}
	// Bob is untouched by alice's exhaustion.
	for i := 0; i < 5; i++ {
		if err := r.Charge("bob", Charge{Label: "b", Epsilon: 0.9}); err != nil {
			t.Fatalf("bob charge %d blocked by alice's exhaustion: %v", i, err)
		}
	}
	ge, _ := r.Global().Spent()
	if math.Abs(ge-(0.9+4.5)) > 1e-9 {
		t.Fatalf("global spend %v, want 5.4", ge)
	}
	al, err := r.Ledger("alice")
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := al.Spent(); math.Abs(e-0.9) > 1e-12 {
		t.Fatalf("alice spent %v, want 0.9", e)
	}
}

// TestGlobalCapBindsWithRefund: a charge that fits the key's cap but not
// the global one is refused AND rolled back from the key's ledger — the
// key must not pay for a release that never ran.
func TestGlobalCapBindsWithRefund(t *testing.T) {
	r := testRegistry(t, 1.0, 0, map[string]KeyCaps{
		"a": {Epsilon: 1},
		"b": {Epsilon: 1},
	})
	if err := r.Charge("a", Charge{Label: "a1", Epsilon: 0.6}); err != nil {
		t.Fatal(err)
	}
	err := r.Charge("b", Charge{Label: "b1", Epsilon: 0.6})
	if !errors.Is(err, ErrBudgetExceeded) || !strings.Contains(err.Error(), "global cap") {
		t.Fatalf("global refusal: %v", err)
	}
	bl, err := r.Ledger("b")
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := bl.Spent(); e != 0 {
		t.Fatalf("refused charge left %v on b's ledger (refund missing)", e)
	}
	// b can still spend what the global cap allows.
	if err := r.Charge("b", Charge{Label: "b2", Epsilon: 0.4}); err != nil {
		t.Fatalf("b refused within the global remainder: %v", err)
	}
}

// TestRegistryKeyRules: unknown keys, empty keys, inherited caps, and the
// no-recap rule.
func TestRegistryKeyRules(t *testing.T) {
	r := testRegistry(t, 2, 1e-6, map[string]KeyCaps{"k": {}})
	if err := r.Charge("nobody", Charge{Epsilon: 0.1}); err == nil {
		t.Error("unknown key charged")
	}
	if err := r.SetKeyCaps("", KeyCaps{}); err == nil {
		t.Error("empty key registered")
	}
	// Caps{} inherits the global caps.
	l, err := r.Ledger("k")
	if err != nil {
		t.Fatal(err)
	}
	if e, d := l.Caps(); e != 2 || d != 1e-6 {
		t.Fatalf("inherited caps (%v, %v), want (2, 1e-6)", e, d)
	}
	if err := r.SetKeyCaps("k", KeyCaps{Epsilon: 5}); err == nil {
		t.Error("re-capping a built ledger accepted")
	}
	// Empty key = the global, single-tenant path.
	if err := r.Charge("", Charge{Label: "g", Epsilon: 0.5}); err != nil {
		t.Fatal(err)
	}
	if e, _ := r.Global().Spent(); math.Abs(e-0.5) > 1e-12 {
		t.Fatalf("global spend %v", e)
	}
	gl, err := r.Ledger("")
	if err != nil || gl != r.Global() {
		t.Fatalf("Ledger(\"\") must be the global ledger (err %v)", err)
	}
}

// TestHistoryRestoreRoundTrip: History into a fresh registry reproduces
// per-key and global spend, including a key the new configuration dropped.
func TestHistoryRestoreRoundTrip(t *testing.T) {
	r1 := testRegistry(t, 10, 0, map[string]KeyCaps{
		"alice": {Epsilon: 2},
		"bob":   {},
	})
	for _, c := range []struct {
		key string
		eps float64
	}{{"alice", 0.5}, {"bob", 1.5}, {"alice", 0.25}, {"", 0.1}} {
		if err := r1.Charge(c.key, Charge{Label: "x", Epsilon: c.eps}); err != nil {
			t.Fatal(err)
		}
	}
	global, perKey := r1.History()

	// The new configuration only knows alice.
	r2 := testRegistry(t, 10, 0, map[string]KeyCaps{"alice": {Epsilon: 2}})
	if err := r2.Restore(global, perKey); err != nil {
		t.Fatal(err)
	}
	g1e, _ := r1.Global().Spent()
	g2e, _ := r2.Global().Spent()
	if g1e != g2e {
		t.Fatalf("global spend %v after restore, want %v", g2e, g1e)
	}
	al, err := r2.Ledger("alice")
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := al.Spent(); math.Abs(e-0.75) > 1e-12 {
		t.Fatalf("alice restored spend %v, want 0.75", e)
	}
	// The dropped key's spend is still visible.
	bl, err := r2.Ledger("bob")
	if err != nil {
		t.Fatalf("dropped key's restored ledger unavailable: %v", err)
	}
	if e, _ := bl.Spent(); math.Abs(e-1.5) > 1e-12 {
		t.Fatalf("bob restored spend %v, want 1.5", e)
	}
	// Restored spend still gates new charges against the cap.
	if err := r2.Charge("alice", Charge{Label: "y", Epsilon: 1.5}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("restored spend not counted toward alice's cap: %v", err)
	}
}

// TestRacingChargesAtCapBoundary: many goroutines racing one cap (run
// under -race in CI) admit exactly what fits — spent equals 0.1 × accepted
// and never passes the cap, through the registry's two-level admission.
func TestRacingChargesAtCapBoundary(t *testing.T) {
	r := testRegistry(t, 2.0, 0, map[string]KeyCaps{
		"a": {Epsilon: 1.5},
		"b": {Epsilon: 1.5},
	})
	var wg sync.WaitGroup
	results := make(chan error, 60)
	for i := 0; i < 60; i++ {
		key := "a"
		if i%2 == 1 {
			key = "b"
		}
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			results <- r.Charge(key, Charge{Label: "race", Epsilon: 0.1})
		}(key)
	}
	wg.Wait()
	close(results)
	ok := 0
	for err := range results {
		if err == nil {
			ok++
		} else if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("unexpected error under race: %v", err)
		}
	}
	ge, _ := r.Global().Spent()
	if math.Abs(ge-float64(ok)*0.1) > 1e-9 {
		t.Fatalf("global ledger holds %v but %d charges were admitted", ge, ok)
	}
	if ge > 2.0+1e-9 {
		t.Fatalf("global cap breached under concurrency: %v", ge)
	}
	// Per-key ledgers must sum to the global: no phantom or lost refunds.
	al, _ := r.Ledger("a")
	bl, _ := r.Ledger("b")
	ae, _ := al.Spent()
	be, _ := bl.Spent()
	if math.Abs(ae+be-ge) > 1e-9 {
		t.Fatalf("per-key spend %v+%v does not reconcile with global %v", ae, be, ge)
	}
}

// TestSummaryGolden pins the shutdown report byte for byte: the global
// ledger's partitions in name order (the whole population first), each
// partition's charges in charge order with a label wider than its column,
// then one line per key, verbatim and redacted.
func TestSummaryGolden(t *testing.T) {
	r := testRegistry(t, 10, 1e-5, map[string]KeyCaps{
		"alice-key-0001": {Epsilon: 4, Delta: 1e-6},
		"bob":            {},
	})
	for _, c := range []struct {
		key string
		c   Charge
	}{
		{"", Charge{Label: "marginals-q1", Epsilon: 0.3}},
		{"alice-key-0001", Charge{Label: "cube", Epsilon: 0.25, Delta: 1e-7, Partition: "2024-cohort"}},
		{"bob", Charge{Label: "a-label-longer-than-twenty-four", Epsilon: 1.0 / 3}},
		{"alice-key-0001", Charge{Label: "fourier-q2", Epsilon: 0.5, Partition: "2024-cohort"}},
		{"", Charge{Label: "synthetic", Epsilon: 0.125, Delta: 2.5e-7, Partition: "adult"}},
	} {
		if err := r.Charge(c.key, c.c); err != nil {
			t.Fatal(err)
		}
	}
	const global = `privacy spent (basic composition): ε=1.383/10, δ=2.5e-07/1e-05 over 5 releases
  partition (whole population):
    marginals-q1             ε=0.3 δ=0
    a-label-longer-than-twenty-four ε=0.3333 δ=0
  partition 2024-cohort:
    cube                     ε=0.25 δ=1e-07
    fourier-q2               ε=0.5 δ=0
  partition adult:
    synthetic                ε=0.125 δ=2.5e-07
`
	for _, tc := range []struct {
		got, want string
	}{
		{r.Global().Summary(), global},
		{r.Summary(), global +
			"  key alice-key-0001   ε=0.75/4 δ=1e-07/1e-06 over 2 releases\n" +
			"  key bob              ε=0.3333/10 δ=0/1e-05 over 1 releases\n"},
		{r.SummaryRedacted(RedactKey), global +
			"  key alic…0264b820    ε=0.75/4 δ=1e-07/1e-06 over 2 releases\n" +
			"  key bob…81b637d8     ε=0.3333/10 δ=0/1e-05 over 1 releases\n"},
	} {
		if tc.got != tc.want {
			t.Fatalf("summary:\n%s\nwant:\n%s", tc.got, tc.want)
		}
	}
}
