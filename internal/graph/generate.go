package graph

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/ds"
)

// Complete returns K_n, which has vertex and edge connectivity n-1.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Graph()
}

// Path returns the path P_n (connectivity 1, diameter n-1).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u+1 < n; u++ {
		b.AddEdge(u, u+1)
	}
	return b.Graph()
}

// Cycle returns the cycle C_n (connectivity 2).
func Cycle(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		b.AddEdge(u, (u+1)%n)
	}
	return b.Graph()
}

// Hypercube returns the d-dimensional hypercube Q_d on 2^d vertices.
// Both its vertex and edge connectivity equal d, making it the
// experiments' canonical "known-k" family.
func Hypercube(d int) *Graph {
	n := 1 << d
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for bit := 0; bit < d; bit++ {
			v := u ^ (1 << bit)
			if u < v {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Graph()
}

// Torus returns the rows x cols wraparound grid. For rows, cols >= 3 it
// is 4-regular with vertex and edge connectivity 4.
func Torus(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(id(r, c), id((r+1)%rows, c))
			b.AddEdge(id(r, c), id(r, (c+1)%cols))
		}
	}
	return b.Graph()
}

// Harary returns the Harary graph H_{k,n}: the k-connected graph on n
// vertices with the minimum possible number of edges (⌈kn/2⌉). Its
// vertex and edge connectivity are exactly k, which makes it the exact
// ground-truth family for the connectivity-approximation experiments.
// It requires 2 <= k < n.
func Harary(k, n int) (*Graph, error) {
	if k < 2 || k >= n {
		return nil, fmt.Errorf("graph: Harary needs 2 <= k < n, got k=%d n=%d", k, n)
	}
	b := NewBuilder(n)
	half := k / 2
	for u := 0; u < n; u++ {
		for off := 1; off <= half; off++ {
			b.AddEdge(u, (u+off)%n)
		}
	}
	if k%2 == 1 {
		if n%2 == 0 {
			for u := 0; u < n/2; u++ {
				b.AddEdge(u, u+n/2)
			}
		} else {
			// Odd k, odd n: standard Harary construction adds the
			// (n+1)/2 edges {i, i+(n-1)/2} for 0 <= i <= (n-1)/2; the
			// middle vertex gains two, all others gain one.
			for u := 0; u <= (n-1)/2; u++ {
				b.AddEdge(u, (u+(n-1)/2)%n)
			}
		}
	}
	return b.Graph(), nil
}

// Gnp returns an Erdős–Rényi random graph G(n,p); for p well above
// log(n)/n its vertex connectivity concentrates near the minimum degree.
func Gnp(n int, p float64, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Graph()
}

// RandomHamCycles returns the union of c independent uniformly random
// Hamiltonian cycles on n vertices. The result is 2c-regular (up to
// coincidences) and w.h.p. has vertex and edge connectivity 2c; it is
// the experiments' scalable "tunable-k expander" family.
func RandomHamCycles(n, c int, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	perm := make([]int, n)
	for i := 0; i < c; i++ {
		ds.Perm(rng, perm)
		for j := 0; j < n; j++ {
			b.AddEdge(perm[j], perm[(j+1)%n])
		}
	}
	return b.Graph()
}

// RandomRegular returns a d-regular random simple graph via the
// configuration model, pairing stubs one at a time: each step draws two
// remaining stubs and keeps the pair unless it is a loop or a duplicate
// edge, and the matching restarts (a bounded number of times) only when
// one step finds no valid pair within a bounded number of draws. For
// d >= 3 the result is d-connected w.h.p. It requires n*d even and
// d < n.
func RandomRegular(n, d int, rng *rand.Rand) (*Graph, error) {
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: RandomRegular needs n*d even, got n=%d d=%d", n, d)
	}
	if d >= n {
		return nil, fmt.Errorf("graph: RandomRegular needs d < n, got n=%d d=%d", n, d)
	}
	const maxAttempts, maxDraws = 200, 100
	stubs := make([]int, n*d)
attempts:
	for attempt := 0; attempt < maxAttempts; attempt++ {
		for i := range stubs {
			stubs[i] = i / d
		}
		b := NewBuilder(n)
		for rest := len(stubs); rest > 0; rest -= 2 {
			draws := 0
			for {
				if draws++; draws > maxDraws {
					continue attempts
				}
				i, j := rng.IntN(rest), rng.IntN(rest-1)
				if j >= i {
					j++
				}
				if u, v := stubs[i], stubs[j]; u != v && !b.HasEdge(u, v) {
					b.AddEdge(u, v)
					// Swap the pair out of the live prefix, higher index first
					// so the lower one is not moved before it is removed.
					i, j = max(i, j), min(i, j)
					stubs[i], stubs[rest-1] = stubs[rest-1], stubs[i]
					stubs[j], stubs[rest-2] = stubs[rest-2], stubs[j]
					break
				}
			}
		}
		return b.Graph(), nil
	}
	return nil, fmt.Errorf("graph: RandomRegular(n=%d,d=%d) failed after %d attempts", n, d, maxAttempts)
}

// CliqueChain returns a path of `cliques` cliques of size `size`, where
// consecutive cliques are joined by `bridge` vertex-disjoint edges. Its
// vertex and edge connectivity equal min(bridge, size-1) and its
// diameter grows linearly in `cliques`, giving a high-diameter,
// low-connectivity family for round-complexity experiments.
func CliqueChain(cliques, size, bridge int) (*Graph, error) {
	if bridge > size {
		return nil, fmt.Errorf("graph: CliqueChain bridge %d exceeds clique size %d", bridge, size)
	}
	if cliques < 1 || size < 2 {
		return nil, fmt.Errorf("graph: CliqueChain needs cliques >= 1, size >= 2")
	}
	n := cliques * size
	b := NewBuilder(n)
	for c := 0; c < cliques; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				b.AddEdge(base+i, base+j)
			}
		}
		if c+1 < cliques {
			next := (c + 1) * size
			for i := 0; i < bridge; i++ {
				b.AddEdge(base+i, next+i)
			}
		}
	}
	return b.Graph(), nil
}

// RandomSpanningConnected adds a random spanning tree to g's edge set so
// that the result is connected; it is used to repair sparse random
// graphs in workload generators.
func RandomSpanningConnected(n int, extra []Edge, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	perm := make([]int, n)
	ds.Perm(rng, perm)
	for i := 1; i < n; i++ {
		b.AddEdge(perm[i], perm[rng.IntN(i)])
	}
	for _, e := range extra {
		b.AddEdge(int(e.U), int(e.V))
	}
	return b.Graph()
}
