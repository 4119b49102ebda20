package accountant

import (
	"fmt"
	"math"
)

// Composition defines how a ledger's individual charges fold into one
// composed (ε, δ) guarantee. A Composition must be a pure function of the
// charge sequence — for a Composition other than the two below, the
// accountant calls it under its lock on every read and admission check —
// and safe for concurrent use (stateless values satisfy both trivially).
// For Basic and ZCDP the accountant keeps running sums instead, and their
// Compose is the oracle those sums are tested against.
//
// Two implementations ship with the package: Basic, the plain
// sequential+parallel accountant, and ZCDP, which composes in zero-
// concentrated differential privacy where long sequences of small releases
// pay far less than their (ε, δ)-sum.
type Composition interface {
	// Name identifies the accounting mode ("basic", "zcdp") in summaries,
	// metrics and snapshots.
	Name() string
	// Compose returns the composed (ε, δ) cost of the charge sequence.
	// Within a partition charges compose sequentially; across partitions
	// the maximum applies; whole-population charges (empty Partition) add
	// to every partition.
	Compose(charges []Charge) (epsilon, delta float64)
}

// Basic is the plain accountant: within each partition (ε, δ) add up
// (sequential composition), across partitions the maximum applies (parallel
// composition), and whole-population charges add to every partition. Simple
// and assumption-free, but loose over long sequences of small releases.
type Basic struct{}

// Name implements Composition.
func (Basic) Name() string { return "basic" }

// Compose implements Composition by (ε, δ)-summation with parallel
// composition across partitions.
func (Basic) Compose(charges []Charge) (float64, float64) {
	var globalEps, globalDel float64
	perPartEps := map[string]float64{}
	perPartDel := map[string]float64{}
	for _, c := range charges {
		if c.Partition == "" {
			globalEps += c.Epsilon
			globalDel += c.Delta
			continue
		}
		perPartEps[c.Partition] += c.Epsilon
		perPartDel[c.Partition] += c.Delta
	}
	maxEps, maxDel := 0.0, 0.0
	for p, e := range perPartEps {
		if e > maxEps {
			maxEps = e
		}
		if d := perPartDel[p]; d > maxDel {
			maxDel = d
		}
	}
	return globalEps + maxEps, globalDel + maxDel
}

// ZCDP composes in zero-concentrated differential privacy (Bun–Steinke):
// every charge converts to a ρ cost, ρ adds up under sequential composition
// (with the same parallel-composition max across partitions as Basic), and
// Spent reports the tight (ε, δ) conversion at the configured TargetDelta:
//
//	ε(ρ, δ) = ρ + 2·√(ρ·ln(1/δ))
//
// Because ρ grows with the square of each small ε instead of linearly, a
// long sequence of small releases composes far tighter than summation —
// the advanced-composition gain the ROADMAP asks for.
//
// Per-charge conversion (see Rho): a charge carrying an explicit Gaussian
// σ uses the exact ρ = Δ²/(2σ²); an (ε, δ>0) charge is read as this
// package's Gaussian mechanism, whose per-row calibration
// σ = √(2·ln(2/δ))·Δ/ε (noise.Params.RowNoise) gives ρ = ε²/(4·ln(2/δ));
// a pure-DP charge (δ = 0) uses ε-DP ⇒ (ε²/2)-zCDP.
//
// In this mode Spent's δ is always TargetDelta once anything was charged:
// zCDP spends one δ at conversion time, not one per release. TargetDelta
// must not exceed the ledger's δ cap (NewComposed refuses the pair, since
// every charge would bounce off the cap).
type ZCDP struct {
	// TargetDelta is the δ at which the composed ρ is converted back to
	// (ε, δ); required in (0, 1).
	TargetDelta float64
}

// NewZCDP validates the target δ and returns the composition.
func NewZCDP(targetDelta float64) (ZCDP, error) {
	if !(targetDelta > 0 && targetDelta < 1) {
		return ZCDP{}, fmt.Errorf("accountant: zCDP target delta must be in (0,1), got %v", targetDelta)
	}
	return ZCDP{TargetDelta: targetDelta}, nil
}

// Name implements Composition.
func (ZCDP) Name() string { return "zcdp" }

// Compose implements Composition by ρ-summation and conversion at
// TargetDelta.
func (z ZCDP) Compose(charges []Charge) (float64, float64) {
	var globalRho float64
	perPart := map[string]float64{}
	for _, c := range charges {
		if c.Partition == "" {
			globalRho += Rho(c)
			continue
		}
		perPart[c.Partition] += Rho(c)
	}
	maxRho := 0.0
	for _, r := range perPart {
		if r > maxRho {
			maxRho = r
		}
	}
	return z.spend(globalRho+maxRho, math.Log(1/z.TargetDelta))
}

// spend converts a composed ρ to (ε, δ) at TargetDelta, given
// logInvDelta = ln(1/TargetDelta).
func (z ZCDP) spend(rho, logInvDelta float64) (float64, float64) {
	if rho == 0 {
		return 0, 0
	}
	return rho + 2*math.Sqrt(rho*logInvDelta), z.TargetDelta
}

// Rho converts one charge to its zCDP cost:
//
//   - Sigma > 0: the charge is a Gaussian mechanism described directly —
//     ρ = Δ²/(2σ²) with Δ = Sensitivity (default 1), exact;
//   - Delta > 0: the charge is an (ε, δ) Gaussian release calibrated as
//     this package's noise does (σ ∝ √(2·ln(2/δ))/ε), so ρ = ε²/(4·ln(2/δ));
//   - otherwise: a pure ε-DP release, ε-DP ⇒ (ε²/2)-zCDP.
func Rho(c Charge) float64 {
	if c.Sigma > 0 {
		sens := c.Sensitivity
		if sens <= 0 {
			sens = 1
		}
		return sens * sens / (2 * c.Sigma * c.Sigma)
	}
	if c.Delta > 0 {
		return c.Epsilon * c.Epsilon / (4 * math.Log(2/c.Delta))
	}
	return c.Epsilon * c.Epsilon / 2
}
