package ds

import (
	"sort"
	"testing"
)

// refOrder is the specification: ids sorted by (load, id) ascending via
// a full comparison sort, exactly what the MWU loop used to pay per
// iteration.
func refOrder(loads []float64) []int32 {
	order := make([]int32, len(loads))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := loads[order[a]], loads[order[b]]
		if la != lb {
			return la < lb
		}
		return order[a] < order[b]
	})
	return order
}

func assertOrderEqual(t *testing.T, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("order length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order[%d] = %d, want %d (got %v, want %v)", i, got[i], want[i], got, want)
		}
	}
}

func TestOrderedLoadsMatchesFullSort(t *testing.T) {
	const m = 64
	loads := make([]float64, m)
	o := NewOrderedLoads(m)
	assertOrderEqual(t, o.Order(), refOrder(loads))

	// Drive the exact MWU update pattern for many iterations: rescale
	// everything by (1-beta), bump a deterministic sparse subset by beta,
	// and compare against a from-scratch sort each time.
	rng := NewRand(7)
	const beta = 0.03
	for iter := 0; iter < 200; iter++ {
		for e := range loads {
			loads[e] *= 1 - beta
		}
		nBump := 1 + rng.IntN(m/3)
		seen := make(map[int32]bool, nBump)
		var bumped []int32
		for len(bumped) < nBump {
			id := int32(rng.IntN(m))
			if !seen[id] {
				seen[id] = true
				bumped = append(bumped, id)
			}
		}
		for _, id := range bumped {
			loads[id] += beta
		}
		sort.Slice(bumped, func(a, b int) bool {
			la, lb := loads[bumped[a]], loads[bumped[b]]
			if la != lb {
				return la < lb
			}
			return bumped[a] < bumped[b]
		})
		o.Reorder(loads, bumped)
		assertOrderEqual(t, o.Order(), refOrder(loads))
		if want := refOrder(loads)[m-1]; o.MaxID() != want {
			t.Fatalf("iter %d: MaxID = %d, want %d", iter, o.MaxID(), want)
		}
	}
}

func TestOrderedLoadsTiesBreakByID(t *testing.T) {
	// All-equal loads: order must be the identity, and bumping a subset
	// to a shared higher value must leave both tied groups id-sorted.
	const m = 10
	loads := make([]float64, m)
	o := NewOrderedLoads(m)
	bumped := []int32{1, 4, 7}
	for _, id := range bumped {
		loads[id] = 0.5
	}
	o.Reorder(loads, bumped)
	assertOrderEqual(t, o.Order(), []int32{0, 2, 3, 5, 6, 8, 9, 1, 4, 7})
}

func TestOrderedLoadsRepairsRoundingCollisions(t *testing.T) {
	// Simulate the rescale collapsing two distinct loads onto one value:
	// id 5 held a larger load than id 2 (so it sat after id 2), but the
	// new loads are equal — Reorder must emit id order within the tie
	// even though neither id was bumped.
	const m = 6
	loads := []float64{0, 0, 0.25, 0, 0, 0.5}
	o := NewOrderedLoads(m)
	o.Reorder(loads, nil)
	assertOrderEqual(t, o.Order(), refOrder(loads)) // {0,1,3,4,2,5}

	loads[2], loads[5] = 0.25, 0.25 // the collapse
	o.Reorder(loads, nil)
	assertOrderEqual(t, o.Order(), refOrder(loads))
}

func TestOrderedLoadsAllBumped(t *testing.T) {
	// Degenerate spanning case (m = n-1): every edge is in every tree.
	const m = 5
	loads := []float64{0.2, 0.2, 0.2, 0.2, 0.2}
	o := NewOrderedLoads(m)
	o.Reorder(loads, []int32{0, 1, 2, 3, 4})
	assertOrderEqual(t, o.Order(), []int32{0, 1, 2, 3, 4})
}
