package cluster

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"mccuckoo/internal/hashutil"
)

func testNodes(n int) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("10.0.0.%d:9053", i+1)
	}
	return nodes
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 0, 1); err == nil {
		t.Fatal("empty node set accepted")
	}
	if _, err := NewRing(testNodes(65), 0, 1); err == nil {
		t.Fatal(">64 nodes accepted")
	}
	dup := []string{"a:1", "b:1", "a:1"}
	if _, err := NewRing(dup, 0, 1); err == nil {
		t.Fatal("duplicate node accepted")
	}
}

// Same seed + same node set (in any order) must yield the identical replica
// assignment for every key — placement is pure configuration, so a client
// and a node that each build their own ring must always agree.
func TestRingDeterministicAcrossNodeOrder(t *testing.T) {
	nodes := testNodes(7)
	const seed = 0x9e3779b97f4a7c15

	ref, err := NewRing(nodes, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]string(nil), nodes...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		r, err := NewRing(shuffled, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		for key := uint64(1); key <= 10_000; key++ {
			var a, b [8]string
			want := ref.Replicas(key, 3, a[:0])
			got := r.Replicas(key, 3, b[:0])
			if len(want) != len(got) {
				t.Fatalf("trial %d key %d: %v vs %v", trial, key, want, got)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("trial %d key %d: replica %d is %s, want %s", trial, key, i, got[i], want[i])
				}
			}
		}
	}
}

func TestRingReplicasDistinctAndOwned(t *testing.T) {
	r, err := NewRing(testNodes(5), 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(1); key <= 2_000; key++ {
		var buf [8]string
		reps := r.Replicas(key, 3, buf[:0])
		if len(reps) != 3 {
			t.Fatalf("key %d: %d replicas, want 3", key, len(reps))
		}
		seen := map[string]bool{}
		for _, a := range reps {
			if seen[a] {
				t.Fatalf("key %d: duplicate replica %s", key, a)
			}
			seen[a] = true
			if !r.Owns(a, key, 3) {
				t.Fatalf("key %d: Owns(%s) disagrees with Replicas", key, a)
			}
		}
		if r.Owns("nope:1", key, 3) {
			t.Fatalf("key %d: Owns accepted a non-member", key)
		}
	}
	// Asking for more replicas than nodes returns every node once.
	var buf [8]string
	if got := r.Replicas(7, 100, buf[:0]); len(got) != 5 {
		t.Fatalf("over-asked replicas: got %d, want 5", len(got))
	}
}

// TestRingOwnsMatchesReplicas: Owns(addr, key, n) is "addr is one of
// Replicas(key, n)" for every n, including the n at or above the node
// count where Owns skips the ring lookup, and for an address outside the
// ring.
func TestRingOwnsMatchesReplicas(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for nodes := 1; nodes <= 3; nodes++ {
		r, err := NewRing(testNodes(nodes), 0, rng.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		addrs := append(testNodes(nodes), "10.0.9.9:9053")
		for range 10_000 {
			key := rng.Uint64()
			for n := 1; n <= nodes+1; n++ {
				reps := r.Replicas(key, n, nil)
				for _, addr := range addrs {
					if got, want := r.Owns(addr, key, n), slices.Contains(reps, addr); got != want {
						t.Fatalf("%d nodes, key %#x, n=%d: Owns(%s) = %v, replicas %v", nodes, key, n, addr, got, reps)
					}
				}
			}
		}
	}
}

// TestRingReplicasMatchClockwiseWalk checks Replicas against a brute-force
// reading of the ring. A node's distance from a key is the clockwise gap
// from the key's point to the node's first point at or after it, wrapping
// past the top of the circle; the replicas are the n nearest nodes, an
// exact tie going to the lower node index as the ring sorts it. Small rings
// put many keys past the last point, so the wrap is exercised.
func TestRingReplicasMatchClockwiseWalk(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, c := range []struct{ nodes, vnodes int }{{1, 1}, {2, 1}, {3, 2}, {5, 16}, {2, 128}, {7, 128}} {
		r, err := NewRing(testNodes(c.nodes), c.vnodes, rng.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		order := make([]int, c.nodes)
		gap := make([]uint64, c.nodes)
		for range 3000 {
			key := rng.Uint64()
			pt := hashutil.BOB64Key(key, r.seed)
			for i := range gap {
				order[i], gap[i] = i, ^uint64(0)
			}
			for _, p := range r.points {
				gap[p.node] = min(gap[p.node], p.hash-pt) // unsigned: wraps past the top
			}
			slices.SortFunc(order, func(a, b int) int { return cmp.Or(cmp.Compare(gap[a], gap[b]), cmp.Compare(a, b)) })
			for n := 1; n <= c.nodes+1; n++ {
				got := r.Replicas(key, n, nil)
				if len(got) != min(n, c.nodes) {
					t.Fatalf("%d nodes × %d: key %#x: %d replicas for n=%d", c.nodes, c.vnodes, key, len(got), n)
				}
				for i, addr := range got {
					if want := r.nodes[order[i]]; addr != want {
						t.Fatalf("%d nodes × %d: key %#x n=%d: replica %d is %s, want %s", c.nodes, c.vnodes, key, n, i, addr, want)
					}
				}
			}
		}
	}
}

// Consistent hashing's defining property: growing an N-node ring by one
// node may only move keys onto the new node — a key's primary never moves
// between two old nodes — and the moved fraction stays near 1/(N+1).
func TestRingRebalanceBounds(t *testing.T) {
	const samples = 20_000
	for _, n := range []int{4, 8, 16} {
		for seed := uint64(1); seed <= 3; seed++ {
			nodes := testNodes(n)
			before, err := NewRing(nodes, 0, seed)
			if err != nil {
				t.Fatal(err)
			}
			grown := append(append([]string(nil), nodes...), "10.0.1.1:9053")
			after, err := NewRing(grown, 0, seed)
			if err != nil {
				t.Fatal(err)
			}
			moved := 0
			for key := uint64(1); key <= samples; key++ {
				var a, b [8]string
				oldPrimary := before.Replicas(key, 1, a[:0])[0]
				newPrimary := after.Replicas(key, 1, b[:0])[0]
				if oldPrimary == newPrimary {
					continue
				}
				if newPrimary != "10.0.1.1:9053" {
					t.Fatalf("n=%d seed=%d key %d: primary moved %s -> %s, neither the new node",
						n, seed, key, oldPrimary, newPrimary)
				}
				moved++
			}
			frac := float64(moved) / samples
			ideal := 1.0 / float64(n+1)
			// With 128 vnodes the load split wobbles around the ideal; allow
			// a generous factor-of-two band plus an absolute floor so small
			// fractions don't trip it.
			if frac > 2*ideal+0.02 {
				t.Fatalf("n=%d seed=%d: %.3f of keys moved, ideal %.3f", n, seed, frac, ideal)
			}
			if moved == 0 {
				t.Fatalf("n=%d seed=%d: no keys moved to the new node", n, seed)
			}
		}
	}
}

// The per-node key share should be near 1/N: virtual nodes smooth the split.
func TestRingBalance(t *testing.T) {
	const n, samples = 8, 40_000
	r, err := NewRing(testNodes(n), 0, 12345)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for key := uint64(1); key <= samples; key++ {
		var buf [8]string
		counts[r.Replicas(key, 1, buf[:0])[0]]++
	}
	ideal := samples / n
	for addr, got := range counts {
		if got < ideal/2 || got > ideal*2 {
			t.Fatalf("node %s owns %d of %d keys (ideal %d): imbalance beyond 2x", addr, got, samples, ideal)
		}
	}
}
