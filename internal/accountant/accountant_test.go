package accountant

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0); err == nil {
		t.Error("zero epsilon cap accepted")
	}
	if _, err := New(1, 1); err == nil {
		t.Error("delta cap 1 accepted")
	}
	if _, err := New(1, 0); err != nil {
		t.Errorf("pure-DP cap rejected: %v", err)
	}
}

func TestSequentialComposition(t *testing.T) {
	a, err := New(1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Charge(Charge{Label: "q1", Epsilon: 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := a.Charge(Charge{Label: "q2", Epsilon: 0.4}); err != nil {
		t.Fatal(err)
	}
	eps, _ := a.Spent()
	if math.Abs(eps-0.8) > 1e-12 {
		t.Fatalf("spent %v, want 0.8", eps)
	}
	if err := a.Charge(Charge{Label: "q3", Epsilon: 0.4}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("overrun charge returned %v", err)
	}
	// A rejected charge leaves the ledger untouched.
	if eps, _ := a.Spent(); eps != 0.8 {
		t.Fatalf("spent %v after rejected charge, want 0.8", eps)
	}
	if err := a.Charge(Charge{Label: "q4", Epsilon: 0.2}); err != nil {
		t.Fatalf("fitting charge rejected: %v", err)
	}
}

func TestParallelComposition(t *testing.T) {
	a, err := New(1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same budget on disjoint partitions costs only the maximum.
	for _, p := range []string{"north", "south", "east"} {
		if err := a.Charge(Charge{Label: "regional", Epsilon: 0.6, Partition: p}); err != nil {
			t.Fatalf("partition %s: %v", p, err)
		}
	}
	eps, _ := a.Spent()
	if math.Abs(eps-0.6) > 1e-12 {
		t.Fatalf("parallel spend %v, want 0.6", eps)
	}
	// Sequential within one partition.
	if err := a.Charge(Charge{Label: "again", Epsilon: 0.3, Partition: "north"}); err != nil {
		t.Fatal(err)
	}
	if eps, _ := a.Spent(); math.Abs(eps-0.9) > 1e-12 {
		t.Fatalf("spend %v, want 0.9", eps)
	}
	// Whole-population charges add on top of the worst partition.
	if err := a.Charge(Charge{Label: "global", Epsilon: 0.2}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("0.9 + 0.2 should exceed the cap, got %v", err)
	}
	if err := a.Charge(Charge{Label: "global", Epsilon: 0.1}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaComposition(t *testing.T) {
	a, err := New(2.0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Charge(Charge{Label: "g1", Epsilon: 0.5, Delta: 6e-6}); err != nil {
		t.Fatal(err)
	}
	if err := a.Charge(Charge{Label: "g2", Epsilon: 0.5, Delta: 6e-6}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("delta overrun accepted: %v", err)
	}
	if err := a.Charge(Charge{Label: "g3", Epsilon: 0.5, Delta: 3e-6}); err != nil {
		t.Fatal(err)
	}
	_, d := a.Spent()
	if math.Abs(d-9e-6) > 1e-18 {
		t.Fatalf("delta spent %v, want 9e-6", d)
	}
}

func TestChargeValidation(t *testing.T) {
	a, _ := New(1, 0)
	if err := a.Charge(Charge{Epsilon: 0}); err == nil {
		t.Error("zero epsilon accepted")
	}
	if err := a.Charge(Charge{Epsilon: 0.1, Delta: 1}); err == nil {
		t.Error("delta 1 accepted")
	}
}

func TestRemaining(t *testing.T) {
	a, _ := New(1, 1e-6)
	_ = a.Charge(Charge{Label: "x", Epsilon: 0.25, Delta: 4e-7})
	e, d := a.Remaining()
	if math.Abs(e-0.75) > 1e-12 || math.Abs(d-6e-7) > 1e-18 {
		t.Fatalf("remaining (%v, %v), want (0.75, 6e-7)", e, d)
	}
}

func TestHistoryAndSummary(t *testing.T) {
	a, _ := New(1, 0)
	_ = a.Charge(Charge{Label: "marginals-q1", Epsilon: 0.3})
	_ = a.Charge(Charge{Label: "cube", Epsilon: 0.2, Partition: "2024-cohort"})
	h := a.History()
	if len(h) != 2 || h[0].Label != "marginals-q1" {
		t.Fatalf("history = %+v", h)
	}
	h[0].Epsilon = 99 // must not alias internal state
	if a.History()[0].Epsilon == 99 {
		t.Fatal("History must return a copy")
	}
	s := a.Summary()
	for _, want := range []string{"marginals-q1", "2024-cohort", "whole population"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestConcurrentCharges(t *testing.T) {
	a, _ := New(10, 0)
	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- a.Charge(Charge{Label: "c", Epsilon: 0.1})
		}()
	}
	wg.Wait()
	close(errs)
	ok := 0
	for err := range errs {
		if err == nil {
			ok++
		}
	}
	eps, _ := a.Spent()
	if diff := float64(ok)*0.1 - eps; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("accepted %d charges but spent %v", ok, eps)
	}
	if eps > 10+1e-9 {
		t.Fatalf("cap breached under concurrency: %v", eps)
	}
}

// TestNonFiniteChargeRefused: NaN and ±Inf privacy parameters are refused
// at admission and on restore. A NaN ε that slipped in would make Spent NaN
// and every later cap comparison false, so a cap-1 ledger would go on to
// admit an ε=100 charge.
func TestNonFiniteChargeRefused(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Charge{
		{Label: "eps-nan", Epsilon: nan},
		{Label: "eps-inf", Epsilon: inf},
		{Label: "eps-neginf", Epsilon: -inf},
		{Label: "delta-nan", Epsilon: 0.1, Delta: nan},
		{Label: "delta-inf", Epsilon: 0.1, Delta: inf},
		{Label: "sigma-nan", Epsilon: 0.1, Delta: 1e-9, Sigma: nan},
		{Label: "sigma-inf", Epsilon: 0.1, Delta: 1e-9, Sigma: inf},
		{Label: "sens-nan", Epsilon: 0.1, Delta: 1e-9, Sigma: 2, Sensitivity: nan},
		{Label: "sens-inf", Epsilon: 0.1, Delta: 1e-9, Sigma: 2, Sensitivity: inf},
	}
	zcdp, err := NewZCDP(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range []Composition{Basic{}, zcdp} {
		for _, c := range bad {
			a, err := NewComposed(1, 1e-3, comp)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Charge(c); err == nil {
				t.Errorf("%s/%s: charge admitted", comp.Name(), c.Label)
			}
			if err := a.Charge(Charge{Label: "big", Epsilon: 100}); !errors.Is(err, ErrBudgetExceeded) {
				t.Errorf("%s/%s: ε=100 on a cap-1 ledger returned %v", comp.Name(), c.Label, err)
			}
			if eps, del := a.Spent(); eps != 0 || del != 0 {
				t.Errorf("%s/%s: spent (%v, %v), want nothing", comp.Name(), c.Label, eps, del)
			}
			if err := a.restore([]Charge{{Label: "ok", Epsilon: 0.1}, c}); err == nil {
				t.Errorf("%s/%s: ledger holding the charge restored", comp.Name(), c.Label)
			}
			if n := len(a.History()); n != 0 {
				t.Errorf("%s/%s: refused restore left %d charges", comp.Name(), c.Label, n)
			}
		}
	}
	r, err := NewRegistry(1, 0, Basic{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore([]Charge{{Label: "nan", Epsilon: nan}}, nil); err == nil {
		t.Error("registry restored a NaN global charge")
	}
	for _, caps := range [][2]float64{{nan, 0}, {1, nan}} {
		if _, err := New(caps[0], caps[1]); err == nil {
			t.Errorf("cap (%v, %v) accepted", caps[0], caps[1])
		}
	}
}

// TestInfiniteCapRefused: an infinite ε cap is refused at construction,
// under either composition. An accepted one would be reported as +Inf,
// which no JSON body can carry.
func TestInfiniteCapRefused(t *testing.T) {
	for _, comp := range []Composition{Basic{}, ZCDP{TargetDelta: 1e-6}} {
		if _, err := NewComposed(math.Inf(1), 1e-3, comp); err == nil {
			t.Errorf("%s: +Inf epsilon cap accepted", comp.Name())
		}
	}
	if _, err := NewRegistry(math.Inf(1), 1e-3, Basic{}); err == nil {
		t.Error("+Inf registry epsilon cap accepted")
	}
	reg, err := NewRegistry(1, 1e-3, Basic{})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SetKeyCaps("k", KeyCaps{Epsilon: math.Inf(1), Delta: -1}); err == nil {
		t.Error("+Inf per-key epsilon cap accepted")
	}
}
