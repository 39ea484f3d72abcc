package main

import (
	"slices"
	"testing"
)

// TestPrefetchLegs runs the example's two legs: with the shipped
// prefetch slice every served read hits the block's bulk fetch, without
// it reads take the slow path, and the weights come out bitwise equal.
func TestPrefetchLegs(t *testing.T) {
	res, art, err := vet()
	if err != nil {
		t.Fatal(err)
	}
	prefetched, onDemand, err := legs(res, art)
	if err != nil {
		t.Fatal(err)
	}
	if prefetched.misses != 0 {
		t.Errorf("with the prefetch slice: %d slow-path fetches, want 0", prefetched.misses)
	}
	if onDemand.misses == 0 {
		t.Error("without the prefetch slice: no slow-path fetches")
	}
	if w, _ := prefetched.weights.DenseData(); !slices.ContainsFunc(w, func(v float64) bool { return v != 0 }) {
		t.Fatal("the loop left every weight at 0")
	}
	if !sameBits(prefetched.weights, onDemand.weights) {
		t.Error("the gathered weights differ between the two legs")
	}
}
