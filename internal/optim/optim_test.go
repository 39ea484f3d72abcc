package optim

import (
	"math"
	"testing"
)

func TestIdentity(t *testing.T) {
	row := []float64{1, 2}
	NewIdentity().Apply(0, 0, row, []float64{0.5, -1}, nil)
	if row[0] != 1.5 || row[1] != 1 {
		t.Fatalf("row = %v", row)
	}
}

func TestSGD(t *testing.T) {
	row := []float64{1}
	NewSGD(0.1).Apply(0, 0, row, []float64{2}, nil)
	if math.Abs(row[0]-0.8) > 1e-12 {
		t.Fatalf("row = %v", row)
	}
}

func TestAdaRevReducesToAdaGradWithoutDelay(t *testing.T) {
	ar := NewAdaRev(0.5)
	rowG := []float64{1}
	rowR := []float64{1}
	var z2 float64 // AdaGrad: z2 += g²; row -= lr * g / sqrt(z2 + eps)
	for i := 0; i < 5; i++ {
		g := []float64{float64(i) - 2}
		z2 += g[0] * g[0]
		rowG[0] -= 0.5 * g[0] / math.Sqrt(z2+1e-8)
		ar.Apply(0, 0, rowR, g, nil)
	}
	if math.Abs(rowG[0]-rowR[0]) > 1e-12 {
		t.Fatalf("AdaRev without backlog must equal AdaGrad: %v vs %v", rowG, rowR)
	}
}

func TestAdaRevBacklogShrinksStaleSteps(t *testing.T) {
	// Two identical gradients; the second applied with a same-direction
	// backlog must take a smaller step than without it.
	noBck := NewAdaRev(1.0)
	withBck := NewAdaRev(1.0)
	a := []float64{0}
	b := []float64{0}
	noBck.Apply(0, 0, a, []float64{1}, nil)
	withBck.Apply(0, 0, b, []float64{1}, nil)
	a2, b2 := a[0], b[0]
	noBck.Apply(0, 0, a, []float64{1}, []float64{0})
	withBck.Apply(0, 0, b, []float64{1}, []float64{3})
	stepA := a2 - a[0]
	stepB := b2 - b[0]
	if stepB >= stepA {
		t.Fatalf("backlogged step %v should be smaller than non-backlogged %v", stepB, stepA)
	}
}

func TestAdaRevBacklogClamp(t *testing.T) {
	// Opposite-direction backlog must not shrink the accumulator below
	// the AdaGrad increment (z2 must stay positive and monotone).
	ar := NewAdaRev(1.0)
	row := []float64{0}
	ar.Apply(0, 0, row, []float64{1}, []float64{-100})
	if math.IsNaN(row[0]) || math.IsInf(row[0], 0) {
		t.Fatalf("clamp failed: row = %v", row)
	}
	// The step equals the plain AdaGrad first step (clamped).
	want := -1.0 / math.Sqrt(1+1e-8)
	if math.Abs(row[0]-want) > 1e-9 {
		t.Fatalf("row = %v, want %v", row[0], want)
	}
}

func TestAdaRevZSum(t *testing.T) {
	ar := NewAdaRev(1.0)
	row := []float64{0}
	ar.Apply(0, 0, row, []float64{2}, nil)
	ar.Apply(0, 0, row, []float64{-0.5}, nil)
	z := ar.ZSum(0, 0, 1)
	if math.Abs(z[0]-1.5) > 1e-12 {
		t.Fatalf("ZSum = %v, want 1.5", z[0])
	}
}

func TestClonesAreFresh(t *testing.T) {
	a := NewAdaRev(1.0)
	row := []float64{0}
	a.Apply(0, 0, row, []float64{1}, nil)
	c := a.Clone().(*AdaRev)
	row2 := []float64{0}
	c.Apply(0, 0, row2, []float64{1}, nil)
	if math.Abs(row2[0]-row[0]) > 1e-12 {
		t.Fatalf("clone must start fresh: %v vs %v", row2[0], row[0])
	}
	if NewSGD(1).Name() != "sgd" || NewAdaRev(1).Name() != "adarev" || NewIdentity().Name() != "identity" {
		t.Fatal("names wrong")
	}
}
