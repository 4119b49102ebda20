// Package accountant tracks the cumulative privacy cost of a sequence of
// releases over the same dataset. The paper's mechanisms consume their whole
// budget in one shot; a data owner running several of them (different
// workloads, re-releases after corrections) composes their guarantees:
//
//   - sequential composition: releasing A at (ε₁,δ₁) and B at (ε₂,δ₂) over
//     the same data is (ε₁+ε₂, δ₁+δ₂)-DP;
//   - parallel composition: releases over disjoint subsets of the
//     population cost only the maximum of their budgets.
//
// The accountant is a ledger with a hard cap: Charge refuses any release
// that would push the total past the cap, which turns accidental budget
// overruns into errors instead of silent privacy loss.
//
// How charges fold into total spend is pluggable (Composition): Basic is
// the plain sequential+parallel accountant above, ZCDP composes in
// zero-concentrated DP so many small releases pay the tight advanced-
// composition price instead of their (ε, δ)-sum.
//
// A multi-tenant service holds one Registry instead of one Accountant: a
// ledger per API key, each with its own cap, plus a global ledger that
// every charge passes through — one tenant exhausting its budget never
// touches another's, while the process-wide cap still binds (see Registry).
package accountant

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// ErrBudgetExceeded is returned when a charge would pass the cap.
var ErrBudgetExceeded = errors.New("accountant: privacy budget exceeded")

// Charge records one release's cost. The JSON tags are the stable wire form
// of ledger snapshots (internal/store persists charge histories so spend
// survives daemon restarts).
type Charge struct {
	Label   string  `json:"label,omitempty"`
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta,omitempty"`
	// Partition names the disjoint population slice the release touched;
	// charges with the same non-empty Partition compose sequentially with
	// each other but in parallel across partitions. An empty Partition
	// means the whole population. Nothing here checks that partitions are
	// disjoint or that a release read only its own: the caller, a curator
	// who split the data, guarantees both. The daemon never sets the field,
	// so every charge it books is whole-population.
	Partition string `json:"partition,omitempty"`
	// Sigma, when positive, additionally describes the charge as a Gaussian
	// mechanism with noise σ = Sigma and L2 sensitivity Sensitivity
	// (default 1): the ZCDP composition then uses the exact ρ = Δ²/(2σ²)
	// instead of converting from (ε, δ). Basic composition ignores both.
	Sigma       float64 `json:"sigma,omitempty"`
	Sensitivity float64 `json:"sensitivity,omitempty"`
}

// Accountant is a concurrency-safe privacy ledger. The zero value is not
// usable; construct with New or NewComposed.
//
// Under Basic and ZCDP the ledger keeps its composed spend as running
// sums (see sums): an admission and a read cost O(1) however long the
// history, and a refund or a restore re-folds the history once. The sums
// add the same terms in the same order as Compose, so Spent is
// bit-identical to Compose(History()). Any other Composition is composed
// afresh on every read and admission.
type Accountant struct {
	mu      sync.Mutex
	epsCap  float64
	delCap  float64
	comp    Composition
	charges []Charge
	// sums is nil for a Composition other than Basic and ZCDP.
	sums *sums
}

// sums is a Basic or ZCDP ledger's spend folded charge by charge: each
// charge's cost — (ε, δ) under Basic, (ρ, 0) under ZCDP — is added to
// the whole-population sum or to its partition's, and top holds the
// largest partition sum per component. Costs are non-negative, so a
// partition sum never falls and top only has to be raised.
type sums struct {
	zcdp *ZCDP
	// logInvDelta is ln(1/zcdp.TargetDelta), taken once.
	logInvDelta float64
	global      [2]float64
	top         [2]float64
	part        map[string][2]float64
}

func newSums(comp Composition) *sums {
	switch c := comp.(type) {
	case Basic:
		return &sums{part: map[string][2]float64{}}
	case ZCDP:
		return &sums{zcdp: &c, logInvDelta: math.Log(1 / c.TargetDelta), part: map[string][2]float64{}}
	}
	return nil
}

// with returns the whole-population sum, the largest partition sum and
// c's partition's sum as they would be with c folded in; it changes
// nothing.
func (s *sums) with(c Charge) (global, top, part [2]float64) {
	cost := [2]float64{c.Epsilon, c.Delta}
	if s.zcdp != nil {
		cost = [2]float64{Rho(c), 0}
	}
	global, top = s.global, s.top
	if c.Partition == "" {
		global[0] += cost[0]
		global[1] += cost[1]
		return global, top, part
	}
	part = s.part[c.Partition]
	part[0] += cost[0]
	part[1] += cost[1]
	top[0] = max(top[0], part[0])
	top[1] = max(top[1], part[1])
	return global, top, part
}

// add folds c in.
func (s *sums) add(c Charge) {
	var part [2]float64
	s.global, s.top, part = s.with(c)
	if c.Partition != "" {
		s.part[c.Partition] = part
	}
}

// refold rebuilds the sums from a whole history.
func (s *sums) refold(charges []Charge) {
	*s = sums{zcdp: s.zcdp, logInvDelta: s.logInvDelta, part: map[string][2]float64{}}
	for _, c := range charges {
		s.add(c)
	}
}

// spend is the composed (ε, δ) of a whole-population sum plus the largest
// partition sum, as Compose computes it.
func (s *sums) spend(global, top [2]float64) (float64, float64) {
	if s.zcdp != nil {
		return s.zcdp.spend(global[0]+top[0], s.logInvDelta)
	}
	return global[0] + top[0], global[1] + top[1]
}

// New builds an accountant with the given total (ε, δ) cap and the Basic
// composition. A zero δ cap permits only pure-DP releases.
func New(epsilonCap, deltaCap float64) (*Accountant, error) {
	return NewComposed(epsilonCap, deltaCap, Basic{})
}

// NewComposed is New with an explicit composition. A ZCDP composition whose
// target δ exceeds the δ cap is refused: its composed δ would bounce every
// single charge off the cap.
func NewComposed(epsilonCap, deltaCap float64, comp Composition) (*Accountant, error) {
	// NaN fails these comparisons: a NaN cap would admit every charge. An
	// infinite cap would be reported as +Inf, which no JSON body can carry.
	if !(epsilonCap > 0) || math.IsInf(epsilonCap, 1) {
		return nil, fmt.Errorf("accountant: epsilon cap must be positive and finite, got %v", epsilonCap)
	}
	if !(deltaCap >= 0 && deltaCap < 1) {
		return nil, fmt.Errorf("accountant: delta cap must be in [0,1), got %v", deltaCap)
	}
	if comp == nil {
		return nil, fmt.Errorf("accountant: nil composition")
	}
	if z, ok := comp.(ZCDP); ok {
		if _, err := NewZCDP(z.TargetDelta); err != nil {
			return nil, err
		}
		if z.TargetDelta > deltaCap {
			return nil, fmt.Errorf("accountant: zCDP target delta %v above the delta cap %v (every charge would be refused)",
				z.TargetDelta, deltaCap)
		}
	}
	return &Accountant{epsCap: epsilonCap, delCap: deltaCap, comp: comp, sums: newSums(comp)}, nil
}

// Composition returns the ledger's accounting mode.
func (a *Accountant) Composition() Composition { return a.comp }

// Caps returns the configured (ε, δ) cap.
func (a *Accountant) Caps() (epsilon, delta float64) { return a.epsCap, a.delCap }

// Spent returns the current composed cost under the ledger's composition:
// within each partition charges compose sequentially, across partitions the
// maximum applies (parallel composition), and whole-population charges add
// to every partition.
func (a *Accountant) Spent() (epsilon, delta float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spentLocked()
}

func (a *Accountant) spentLocked() (float64, float64) {
	if a.sums != nil {
		return a.sums.spend(a.sums.global, a.sums.top)
	}
	return a.comp.Compose(a.charges)
}

// Remaining returns the unspent budget, clamped at zero: the admission
// tolerance in Charge can leave composed spend a few ulps past the cap,
// and a ledger must report that as "nothing left", never as negative
// budget.
func (a *Accountant) Remaining() (epsilon, delta float64) {
	e, d := a.Spent()
	return max(0, a.epsCap-e), max(0, a.delCap-d)
}

// Charge records a release if it fits under the cap; otherwise it returns
// ErrBudgetExceeded and records nothing.
func (a *Accountant) Charge(c Charge) error {
	if err := validateCharge(c); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var eps, del float64
	if a.sums != nil {
		global, top, _ := a.sums.with(c)
		eps, del = a.sums.spend(global, top)
	} else {
		eps, del = a.comp.Compose(append(a.charges[:len(a.charges):len(a.charges)], c))
	}
	if eps > a.epsCap+1e-12 || del > a.delCap+1e-15 {
		// The prior spend is the ledger's as it stands: under parallel
		// composition (and zCDP's non-additive conversion) the composed
		// total minus the charge's own (ε, δ) is NOT the prior spend, and
		// a refused charge in a non-maximal partition would report
		// garbage, possibly negative.
		priorEps, priorDel := a.spentLocked()
		return fmt.Errorf("%w: charge %q (ε=%v, δ=%v) would raise spend from (%v, %v) to (%v, %v), beyond cap (%v, %v)",
			ErrBudgetExceeded, c.Label, c.Epsilon, c.Delta, priorEps, priorDel, eps, del, a.epsCap, a.delCap)
	}
	a.charges = append(a.charges, c)
	if a.sums != nil {
		a.sums.add(c)
	}
	return nil
}

// validateCharge admits only finite parameters. The comparisons are written
// so that NaN fails them: a NaN ε would make Spent NaN, and every later cap
// comparison against NaN is false — the ledger would admit anything. A +Inf
// ε or σ describes a noiseless (or free) mechanism and is refused too.
func validateCharge(c Charge) error {
	if !(c.Epsilon > 0) || math.IsInf(c.Epsilon, 1) {
		return fmt.Errorf("accountant: charge epsilon must be positive and finite, got %v", c.Epsilon)
	}
	if !(c.Delta >= 0 && c.Delta < 1) {
		return fmt.Errorf("accountant: charge delta must be in [0,1), got %v", c.Delta)
	}
	if !(c.Sigma >= 0) || !(c.Sensitivity >= 0) || math.IsInf(c.Sigma, 1) || math.IsInf(c.Sensitivity, 1) {
		return fmt.Errorf("accountant: charge sigma/sensitivity must be non-negative and finite, got (%v, %v)", c.Sigma, c.Sensitivity)
	}
	return nil
}

// refund removes the most recently recorded charge equal to c. It exists
// for multi-ledger admission (Registry): when a charge admitted by a
// per-key ledger is then refused by the global one, the local admission
// must be undone or the key pays for a release that never ran.
func (a *Accountant) refund(c Charge) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := len(a.charges) - 1; i >= 0; i-- {
		if a.charges[i] == c {
			a.charges = append(a.charges[:i], a.charges[i+1:]...)
			if a.sums != nil {
				a.sums.refold(a.charges)
			}
			return
		}
	}
}

// restore appends previously recorded charges without the cap admission
// check — the replay path for ledger snapshots. Spend history is a fact:
// if the caps shrank since the snapshot was written, the history still
// stands and future charges are what the (now tighter) cap refuses.
func (a *Accountant) restore(charges []Charge) error {
	for _, c := range charges {
		if err := validateCharge(c); err != nil {
			return fmt.Errorf("accountant: restoring ledger: %w", err)
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.charges = append(a.charges, charges...)
	if a.sums != nil {
		a.sums.refold(a.charges)
	}
	return nil
}

// History returns a copy of the ledger in charge order.
func (a *Accountant) History() []Charge {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Charge, len(a.charges))
	copy(out, a.charges)
	return out
}

// Summary renders a human-readable ledger breakdown.
func (a *Accountant) Summary() string {
	var b strings.Builder
	a.writeSummary(&b)
	return b.String()
}

// writeSummary writes Summary's report into b. Every line goes straight
// into b: a report made by concatenation would copy the growing text once
// per charge, quadratic in the ledger, while the ledger mutex is held.
func (a *Accountant) writeSummary(b *strings.Builder) {
	a.mu.Lock()
	defer a.mu.Unlock()
	eps, del := a.spentLocked()
	fmt.Fprintf(b, "privacy spent (%s composition): ε=%.4g/%.4g, δ=%.3g/%.3g over %d releases\n",
		a.comp.Name(), eps, a.epsCap, del, a.delCap, len(a.charges))
	byPart := map[string][]Charge{}
	for _, c := range a.charges {
		byPart[c.Partition] = append(byPart[c.Partition], c)
	}
	parts := make([]string, 0, len(byPart))
	for p := range byPart {
		parts = append(parts, p)
	}
	sort.Strings(parts)
	for _, p := range parts {
		name := p
		if name == "" {
			name = "(whole population)"
		}
		fmt.Fprintf(b, "  partition %s:\n", name)
		for _, c := range byPart[p] {
			fmt.Fprintf(b, "    %-24s ε=%.4g δ=%.3g\n", c.Label, c.Epsilon, c.Delta)
		}
	}
}

// Count returns the number of recorded charges without copying the ledger.
func (a *Accountant) Count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.charges)
}
