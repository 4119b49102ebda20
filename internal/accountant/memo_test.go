package accountant

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// checkMemo asserts that a ledger's Spent is bit-identical to composing
// its history afresh — the oracle the running sums must never drift from.
func checkMemo(t *testing.T, step int, name string, l *Accountant) {
	t.Helper()
	eps, del := l.Spent()
	wantEps, wantDel := l.Composition().Compose(l.History())
	if math.Float64bits(eps) != math.Float64bits(wantEps) || math.Float64bits(del) != math.Float64bits(wantDel) {
		t.Fatalf("step %d, ledger %s: Spent (%v, %v) != Compose(History()) (%v, %v)",
			step, name, eps, del, wantEps, wantDel)
	}
}

// randomCharge draws a charge with a mixed partition, sometimes δ > 0 and
// sometimes an explicit Gaussian σ, so both compositions see every
// per-charge conversion.
func randomCharge(rng *rand.Rand, scale float64) Charge {
	parts := []string{"", "", "north", "south", "east"}
	c := Charge{
		Label:     "c",
		Epsilon:   scale * (0.01 + rng.Float64()*0.5),
		Partition: parts[rng.Intn(len(parts))],
	}
	if rng.Intn(2) == 0 {
		c.Delta = 1e-9 * (1 + rng.Float64())
	}
	if rng.Intn(3) == 0 {
		c.Sigma = 1 + rng.Float64()*9
		c.Sensitivity = 1
	}
	return c
}

// TestSpentMemoMatchesCompose is the memo's oracle property: over random
// sequences of admitted charges, per-key and global refusals (the latter
// exercise refund), restores onto live ledgers and snapshot round trips into
// a fresh registry, every ledger's Spent equals Compose(History()) bit for
// bit after every step, for both compositions.
func TestSpentMemoMatchesCompose(t *testing.T) {
	keys := []string{"", "alice", "bob", "carol"}
	for _, comp := range []Composition{Basic{}, ZCDP{TargetDelta: 1e-6}} {
		t.Run(comp.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			newRegistry := func() *Registry {
				r, err := NewRegistry(12, 1e-3, comp)
				if err != nil {
					t.Fatal(err)
				}
				for k, caps := range map[string]KeyCaps{
					"alice": {Epsilon: 4, Delta: -1},
					"bob":   {Epsilon: 9, Delta: -1},
					"carol": {},
				} {
					if err := r.SetKeyCaps(k, caps); err != nil {
						t.Fatal(err)
					}
				}
				return r
			}
			var admitted, localRefusals, globalRefusals, restores int
			for trial := 0; trial < 20; trial++ {
				r := newRegistry()
				for step := 0; step < 120; step++ {
					switch op := rng.Intn(20); {
					case op == 0:
						// Restore extra history onto the live ledgers.
						extra := []Charge{randomCharge(rng, 0.01)}
						if err := r.Restore(extra, map[string][]Charge{"alice": extra}); err != nil {
							t.Fatal(err)
						}
						restores++
					case op == 1:
						// Snapshot round trip into a fresh registry.
						global, perKey := r.History()
						r = newRegistry()
						if err := r.Restore(global, perKey); err != nil {
							t.Fatal(err)
						}
						restores++
					default:
						err := r.Charge(keys[rng.Intn(len(keys))], randomCharge(rng, 1))
						switch {
						case err == nil:
							admitted++
						case !errors.Is(err, ErrBudgetExceeded):
							t.Fatalf("step %d: unexpected error %v", step, err)
						case strings.HasPrefix(err.Error(), "global cap"):
							globalRefusals++
						default:
							localRefusals++
						}
					}
					checkMemo(t, step, "global", r.Global())
					for _, k := range keys[1:] {
						l, err := r.Ledger(k)
						if err != nil {
							t.Fatal(err)
						}
						checkMemo(t, step, k, l)
					}
				}
			}
			if admitted == 0 || localRefusals == 0 || globalRefusals == 0 || restores == 0 {
				t.Fatalf("sequence missed a mutation kind: %d admitted, %d local refusals, %d global refusals (refunds), %d restores",
					admitted, localRefusals, globalRefusals, restores)
			}
		})
	}
}

// TestConcurrentSpentSeesAdmittedCharges: a Spent that starts after a
// Charge returned must include that charge — the ledger may never serve a
// spend composed before an admission it follows. Every charge is ε = 1 on
// the whole population, so the composed spend is an exact integer count.
func TestConcurrentSpentSeesAdmittedCharges(t *testing.T) {
	a, err := New(1e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter, readers = 4, 500, 4
	var done atomic.Int64 // charges whose Charge call has returned
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := a.Charge(Charge{Label: "w", Epsilon: 1}); err != nil {
					t.Error(err)
					return
				}
				done.Add(1)
			}
		}()
	}
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := done.Load()
				if eps, _ := a.Spent(); eps < float64(n) {
					t.Errorf("Spent %v after %d admitted charges", eps, n)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	if eps, _ := a.Spent(); eps != writers*perWriter {
		t.Fatalf("final spend %v, want %d", eps, writers*perWriter)
	}
}

// composed wraps a Composition so the ledger sees a type it keeps no
// running sums for and composes the history instead.
type composed struct{ Composition }

func (composed) Name() string { return "composed" }

// TestRunningSumsMatchCompose is the running sums' oracle property: over
// random sequences of charges (admitted and refused), refunds of the
// latest charge, of older charges and of charges never recorded, and
// restores, Spent equals Compose(History()) bit for bit after every step
// — under Basic, ZCDP and a composition the ledger keeps no sums for.
func TestRunningSumsMatchCompose(t *testing.T) {
	for _, comp := range []Composition{Basic{}, ZCDP{TargetDelta: 1e-6}, composed{Basic{}}} {
		t.Run(comp.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(25))
			var admitted, refused, refunds, restores int
			for trial := 0; trial < 30; trial++ {
				a, err := NewComposed(12, 1e-3, comp)
				if err != nil {
					t.Fatal(err)
				}
				var last Charge
				for step := 0; step < 200; step++ {
					switch op := rng.Intn(10); {
					case op == 0 && a.Count() > 0:
						// Refund an older charge.
						h := a.History()
						a.refund(h[rng.Intn(len(h))])
						refunds++
					case op == 1:
						// Refund the latest admission, as Registry.Charge does.
						a.refund(last)
						refunds++
					case op == 2:
						a.refund(randomCharge(rng, 1)) // never recorded: a no-op
					case op == 3:
						if err := a.restore([]Charge{randomCharge(rng, 0.1), randomCharge(rng, 0.1)}); err != nil {
							t.Fatal(err)
						}
						restores++
					default:
						last = randomCharge(rng, 1)
						switch err := a.Charge(last); {
						case err == nil:
							admitted++
						case errors.Is(err, ErrBudgetExceeded):
							refused++
						default:
							t.Fatal(err)
						}
					}
					checkMemo(t, step, comp.Name(), a)
				}
			}
			if admitted == 0 || refused == 0 || refunds == 0 || restores == 0 {
				t.Fatalf("sequence missed a mutation kind: %d admitted, %d refused, %d refunds, %d restores",
					admitted, refused, refunds, restores)
			}
		})
	}
}
