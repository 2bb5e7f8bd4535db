package ds

import (
	"testing"
	"testing/quick"
)

func TestUnionFindBasic(t *testing.T) {
	u := NewUnionFind(10)
	for i := 0; i < 10; i++ {
		if u.Find(i) != i {
			t.Fatalf("Find(%d) = %d in a fresh forest", i, u.Find(i))
		}
	}
	if !u.Union(0, 1) {
		t.Fatal("Union(0,1) = false, want true")
	}
	if u.Union(1, 0) {
		t.Fatal("repeat Union(1,0) = true, want false")
	}
	if u.Find(0) != u.Find(1) {
		t.Fatal("0 and 1 in different sets after union")
	}
	if u.Find(0) == u.Find(2) {
		t.Fatal("0 and 2 in one set without union")
	}
}

func TestUnionFindChainMerge(t *testing.T) {
	const n = 1000
	u := NewUnionFind(n)
	for i := 0; i+1 < n; i++ {
		if !u.Union(i, i+1) {
			t.Fatalf("Union(%d,%d) merged nothing", i, i+1)
		}
	}
	for i := 1; i < n; i++ {
		if u.Find(i) != u.Find(0) {
			t.Fatalf("%d not in 0's set after chain", i)
		}
	}
	if u.Union(0, n-1) {
		t.Fatal("Union of the chain's ends merged again")
	}
}

func TestUnionFindReset(t *testing.T) {
	u := NewUnionFind(5)
	u.Union(0, 1)
	u.Union(2, 3)
	u.Reset()
	for i := 0; i < 5; i++ {
		if u.Find(i) != i {
			t.Fatalf("Find(%d) = %d after Reset", i, u.Find(i))
		}
	}
	if !u.Union(0, 1) {
		t.Fatal("Union(0,1) after Reset merged nothing")
	}
}

// TestUnionFindComponents checks the sets a few unions leave:
// {0,2,4}, {1,5} and {3}.
func TestUnionFindComponents(t *testing.T) {
	u := NewUnionFind(6)
	u.Union(0, 2)
	u.Union(2, 4)
	u.Union(1, 5)
	if u.Find(0) != u.Find(2) || u.Find(2) != u.Find(4) {
		t.Fatal("0, 2 and 4 are not in one set")
	}
	if u.Find(1) != u.Find(5) {
		t.Fatal("1 and 5 are not in one set")
	}
	if u.Find(0) == u.Find(1) || u.Find(0) == u.Find(3) || u.Find(1) == u.Find(3) {
		t.Fatal("distinct sets share a root")
	}
}

// TestUnionFindMatchesNaive drives the structure with random union
// sequences and checks Union's result and Find equality against a
// brute-force partition.
func TestUnionFindMatchesNaive(t *testing.T) {
	property := func(ops []uint16) bool {
		const n = 32
		u := NewUnionFind(n)
		naive := make([]int, n)
		for i := range naive {
			naive[i] = i
		}
		relabel := func(from, to int) {
			for i := range naive {
				if naive[i] == from {
					naive[i] = to
				}
			}
		}
		for _, op := range ops {
			x, y := int(op)%n, int(op>>5)%n
			if u.Union(x, y) != (naive[x] != naive[y]) {
				return false
			}
			if naive[x] != naive[y] {
				relabel(naive[x], naive[y])
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if (u.Find(i) == u.Find(j)) != (naive[i] == naive[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnionFind(b *testing.B) {
	const n = 1 << 16
	rng := NewRand(1)
	for i := 0; i < b.N; i++ {
		u := NewUnionFind(n)
		for j := 0; j < n; j++ {
			u.Union(rng.IntN(n), rng.IntN(n))
		}
	}
}
