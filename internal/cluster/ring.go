// Package cluster is the client-side cluster tier over the wire protocol
// (DESIGN.md §11): a deterministic consistent-hash ring maps every key to R
// replica nodes, Client fans reads and writes across those replicas with
// write quorums and read-repair, and Replicator keeps a node converged with
// its peers through op-log subscriptions. The paper's multi-copy idea one
// level up: key copies spread across nodes instead of buckets, so losing
// one process loses no keys.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"mccuckoo/internal/hashutil"
)

// DefaultVNodes is the virtual-node count per physical node (128 points on
// the ring per node). More virtual nodes smooth the keyspace split at the
// cost of a larger ring; 128 keeps the imbalance within a few percent for
// the fleet sizes mcserved targets.
const DefaultVNodes = 128

// Ring is a seeded consistent-hash ring with virtual nodes. Construction is
// deterministic: the same node set (in any order), seed, and virtual-node
// count always produce the identical ring, so every client and every node
// in a cluster independently computes the same key placement — there is no
// membership protocol to agree on, only configuration.
//
// A Ring is immutable after construction and safe for concurrent use.
type Ring struct {
	nodes  []string
	vnodes int
	seed   uint64
	points []ringPoint // sorted by hash
}

// ringPoint is one virtual node: a position on the [0, 2^64) circle owned
// by a physical node.
type ringPoint struct {
	hash uint64
	node int32
}

// NewRing builds the ring over the given node addresses. Duplicates are
// rejected; order does not matter (nodes are sorted first).
func NewRing(nodes []string, vnodes int, seed uint64) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: ring needs at least one node")
	}
	if len(nodes) > 64 {
		// Replica selection tracks visited nodes in a 64-bit bitmap; the
		// fleets this repo targets are far smaller.
		return nil, fmt.Errorf("cluster: ring supports at most 64 nodes, got %d", len(nodes))
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("cluster: duplicate node %q", sorted[i])
		}
	}
	r := &Ring{
		nodes:  sorted,
		vnodes: vnodes,
		seed:   seed,
		points: make([]ringPoint, 0, len(sorted)*vnodes),
	}
	for ni, addr := range sorted {
		b := []byte(addr)
		for v := 0; v < vnodes; v++ {
			h := hashutil.BOB64(b, seed^hashutil.Mix64(uint64(v)+1))
			r.points = append(r.points, ringPoint{hash: h, node: int32(ni)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Identical positions (vanishingly rare) tie-break by node index so
		// the order is still deterministic.
		return a.node < b.node
	})
	return r, nil
}

// Nodes returns the ring's node addresses in sorted order. The slice is
// shared; do not mutate it.
func (r *Ring) Nodes() []string { return r.nodes }

// point maps a key onto the circle.
//
//mcvet:deterministic
func (r *Ring) point(key uint64) uint64 {
	return hashutil.BOB64Key(key, r.seed)
}

// Replicas appends the addresses of the n distinct nodes responsible for
// key — the first n distinct owners walking clockwise from the key's point
// — to dst and returns it. When n exceeds the node count every node is
// returned. The first address is the key's primary.
//
//mcvet:deterministic
func (r *Ring) Replicas(key uint64, n int, dst []string) []string {
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	if n <= 0 {
		return dst
	}
	pt := r.point(key)
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= pt
	})
	var seen uint64 // node-index bitmap; rings are far smaller than 64 nodes
	for i := 0; i < len(r.points) && n > 0; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen&(1<<uint(p.node)) != 0 {
			continue
		}
		seen |= 1 << uint(p.node)
		dst = append(dst, r.nodes[p.node])
		n--
	}
	return dst
}

// Everywhere reports whether n replicas put every key on every node: n is
// at least the node count, so no key's placement needs a ring walk.
func (r *Ring) Everywhere(n int) bool { return n >= len(r.nodes) }

// Owns reports whether addr is one of the n replicas for key. When every
// node holds every key (Everywhere), Owns only checks that addr is one of
// the ring's nodes.
//
//mcvet:deterministic
func (r *Ring) Owns(addr string, key uint64, n int) bool {
	if r.Everywhere(n) {
		_, ok := slices.BinarySearch(r.nodes, addr)
		return ok
	}
	var buf [8]string
	for _, a := range r.Replicas(key, n, buf[:0]) {
		if a == addr {
			return true
		}
	}
	return false
}
