package accountant

import (
	"fmt"
	"testing"
)

// BenchmarkLedgerSpent measures the ledger of a long-lived multi-tenant
// daemon at 10k and 100k charges, tracked per PR through the CI bench
// artifact. The basic and zcdp arms time Spent between charges — the read
// every response and /v1/budget pays. The charge-then-spent arms time one
// admission followed by Spent: admission adds to running sums, so both
// sizes should cost the same. Each admission stays on the ledger; to keep
// memory bounded the ledger is rebuilt at its starting size (untimed)
// whenever it has doubled. The summary arms time the shutdown report, which
// should grow linearly with the ledger.
func BenchmarkLedgerSpent(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		charges := make([]Charge, n)
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
		size := fmt.Sprintf("%dk", n/1000)
		for _, comp := range []Composition{Basic{}, ZCDP{TargetDelta: 1e-6}} {
			b.Run(comp.Name()+"/"+size, func(b *testing.B) {
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
		b.Run("summary/"+size, func(b *testing.B) {
			a := ledger(b, Basic{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if a.Summary() == "" {
					b.Fatal("empty summary")
				}
			}
		})
		for _, comp := range []Composition{Basic{}, ZCDP{TargetDelta: 1e-6}} {
			b.Run("charge-then-spent/"+comp.Name()+"/"+size, func(b *testing.B) {
				a := ledger(b, comp)
				c := Charge{Label: "next", Epsilon: 0.001, Delta: 1e-9, Partition: "p0"}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i > 0 && i%n == 0 {
						b.StopTimer()
						a = ledger(b, comp)
						b.StartTimer()
					}
					if err := a.Charge(c); err != nil {
						b.Fatal(err)
					}
					if e, _ := a.Spent(); e <= 0 {
						b.Fatal("zero spend")
					}
				}
			})
		}
	}
}
