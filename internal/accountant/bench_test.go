package accountant

import (
	"fmt"
	"testing"
)

// BenchmarkLedgerSpent measures a 10k-charge ledger of a long-lived
// multi-tenant daemon, tracked per PR through the CI bench artifact. The
// basic and zcdp arms time Spent between charges — the memoized read every
// response and /v1/budget pays. The charge-then-spent arms time one
// admission followed by Spent (the charge is refunded so the history stays
// at 10k): Charge still composes the whole history, the O(charges) cost a
// running-sum ledger would remove.
func BenchmarkLedgerSpent(b *testing.B) {
	charges := make([]Charge, 10_000)
	for i := range charges {
		charges[i] = Charge{
			Label:     "r",
			Epsilon:   0.001,
			Delta:     1e-9,
			Partition: fmt.Sprintf("p%d", i%16),
		}
	}
	ledger := func(b *testing.B, comp Composition) *Accountant {
		a, err := NewComposed(1e9, 1e-3, comp)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.restore(charges); err != nil {
			b.Fatal(err)
		}
		return a
	}
	for _, comp := range []Composition{Basic{}, ZCDP{TargetDelta: 1e-6}} {
		b.Run(comp.Name(), func(b *testing.B) {
			a := ledger(b, comp)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if e, _ := a.Spent(); e <= 0 {
					b.Fatal("zero spend")
				}
			}
		})
	}
	for _, comp := range []Composition{Basic{}, ZCDP{TargetDelta: 1e-6}} {
		b.Run("charge-then-spent/"+comp.Name(), func(b *testing.B) {
			a := ledger(b, comp)
			c := Charge{Label: "next", Epsilon: 0.001, Delta: 1e-9, Partition: "p0"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.Charge(c); err != nil {
					b.Fatal(err)
				}
				if e, _ := a.Spent(); e <= 0 {
					b.Fatal("zero spend")
				}
				a.refund(c)
			}
		})
	}
}
