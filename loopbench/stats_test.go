package main

import "testing"

// TestPercentileRule checks that a reported percentile always has at
// least minTail samples beyond it, that it is refused otherwise, and
// that it is the nearest-rank quantile.
func TestPercentileRule(t *testing.T) {
	for _, q := range []float64{0.5, 0.9, 0.99} {
		for n := 0; n <= 2500; n++ {
			sorted := make([]float64, n)
			for i := range sorted {
				sorted[i] = float64(i)
			}
			v, err := percentile(sorted, q)
			if err != nil {
				if enoughFor(n, q) {
					t.Fatalf("p%g of %d samples refused: %v", 100*q, n, err)
				}
				continue
			}
			rank := int(v) // samples are their own ranks
			if beyond := n - 1 - rank; beyond < minTail {
				t.Fatalf("p%g of %d samples has %d beyond it, want ≥ %d", 100*q, n, beyond, minTail)
			}
			if atOrBelow := rank + 1; float64(atOrBelow) < q*float64(n) || float64(rank) >= q*float64(n) {
				t.Fatalf("p%g of %d samples is rank %d, not the nearest rank", 100*q, n, rank)
			}
		}
	}
}

func TestPercentileMinimumSamples(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		need int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		if enoughFor(tc.need-1, tc.q) || !enoughFor(tc.need, tc.q) {
			t.Errorf("p%g: want %d samples to be the fewest accepted", 100*tc.q, tc.need)
		}
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got < 2.999 || got > 3.001 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	if xs[0] < 4.999 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{1, 2, 3, 4}); got < 2.499 || got > 2.501 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}
