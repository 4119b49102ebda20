package repro

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/accountant"
)

// Typed errors returned by construction-time validation and by releases.
// They wrap with fmt.Errorf("%w: ...") throughout the package, so callers
// branch with errors.Is — the HTTP serving layer (internal/server) maps
// each of them to a 4xx status code.
var (
	// ErrInvalidEpsilon reports a non-positive privacy budget ε.
	ErrInvalidEpsilon = errors.New("repro: epsilon must be positive")
	// ErrInvalidDelta reports a δ outside [0, 1).
	ErrInvalidDelta = errors.New("repro: delta must be in [0, 1)")
	// ErrDimensionMismatch reports a workload whose binary dimension does
	// not match the schema (or data vector) it is released over.
	ErrDimensionMismatch = errors.New("repro: workload dimension mismatch")
	// ErrBudgetExhausted reports a release refused because it would push the
	// budget ledger past its configured (ε, δ) cap. The release did not run
	// and spent nothing.
	ErrBudgetExhausted = errors.New("repro: privacy budget exhausted")
	// ErrInvalidOption reports an invalid Releaser construction option
	// (negative worker count, mis-sized query weights, nil workload, …).
	ErrInvalidOption = errors.New("repro: invalid option")
)

// BudgetLedger tracks cumulative (ε, δ) spend across releases over the same
// dataset, refusing any release that would pass its cap — sequential
// composition with a hard stop (and parallel composition across disjoint
// population partitions, see Charge.Partition). It is safe for concurrent
// use and shareable across any number of Releasers, which is how a serving
// deployment enforces one budget over many schemas and workloads.
type BudgetLedger = accountant.Accountant

// BudgetCharge is one ledger entry: a label, its (ε, δ) cost and an
// optional population partition for parallel composition. A charge may also
// carry an explicit Gaussian (σ, sensitivity) pair, which the zCDP
// composition prefers over the (ε, δ) conversion.
type BudgetCharge = accountant.Charge

// Composition selects how a ledger folds individual charges into total
// spend: BasicComposition is plain (ε, δ)-summation with parallel
// composition; ZCDPComposition converts each charge to a zCDP ρ, composes
// by summation, and reports the tight (ε, δ) at a target δ — long
// sequences of small releases pay far less than their sum.
type Composition = accountant.Composition

// BasicComposition is the default accounting: (ε, δ) summation within each
// partition, the maximum across partitions.
func BasicComposition() Composition { return accountant.Basic{} }

// ZCDPComposition returns Rényi/zCDP accounting reporting composed spend as
// the tight (ε, targetDelta). targetDelta must be in (0, 1) and no larger
// than the δ cap of any ledger using it.
func ZCDPComposition(targetDelta float64) (Composition, error) {
	z, err := accountant.NewZCDP(targetDelta)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidOption, err)
	}
	return z, nil
}

// NewBudgetLedger returns a ledger with the given total (ε, δ) cap and the
// basic composition. A zero deltaCap permits only pure-DP releases.
func NewBudgetLedger(epsilonCap, deltaCap float64) (*BudgetLedger, error) {
	return NewBudgetLedgerComposed(epsilonCap, deltaCap, BasicComposition())
}

// NewBudgetLedgerComposed is NewBudgetLedger under an explicit composition.
func NewBudgetLedgerComposed(epsilonCap, deltaCap float64, comp Composition) (*BudgetLedger, error) {
	l, err := accountant.NewComposed(epsilonCap, deltaCap, comp)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidOption, err)
	}
	return l, nil
}

// BudgetRegistry is the multi-tenant ledger: one BudgetLedger per
// registered key, each under its own cap, plus a global ledger every charge
// also passes through — admission is all-or-nothing across the pair. The
// serving layer keys it by API key; library callers attach one to a
// Releaser with WithBudgetCaps and route releases with ReleaseSpec.Key.
type BudgetRegistry = accountant.Registry

// BudgetKeyCaps caps one key's ledger in a BudgetRegistry; the zero value
// inherits the registry's global caps.
type BudgetKeyCaps = accountant.KeyCaps

// NewBudgetRegistry builds a multi-tenant ledger registry with the given
// global cap, composition (nil = basic) and per-key caps.
func NewBudgetRegistry(epsilonCap, deltaCap float64, comp Composition, perKey map[string]BudgetKeyCaps) (*BudgetRegistry, error) {
	r, err := accountant.NewRegistry(epsilonCap, deltaCap, comp)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidOption, err)
	}
	for key, caps := range perKey {
		if err := r.SetKeyCaps(key, caps); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidOption, err)
		}
	}
	return r, nil
}

// validatePrivacy applies the shared (ε, δ) admission checks. The
// comparisons are written so that NaN fails them, and ε = +Inf (zero
// noise) is refused.
func validatePrivacy(epsilon, delta float64) error {
	if !(epsilon > 0) || math.IsInf(epsilon, 1) {
		return fmt.Errorf("%w: got %v", ErrInvalidEpsilon, epsilon)
	}
	if !(delta >= 0 && delta < 1) {
		return fmt.Errorf("%w: got %v", ErrInvalidDelta, delta)
	}
	return nil
}
