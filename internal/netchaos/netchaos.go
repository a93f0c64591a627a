// Package netchaos deterministically injects network faults between named
// endpoints, the network-layer sibling of internal/core's table fault
// injector: every fault decision — which links are cut, how much latency a
// write sees, when a connection is reset — is a pure function of the seed
// and the steering calls the test script makes, so a failing chaos drill
// reproduces from its seed and script alone.
//
// A Network models directed links between named endpoints. Client-side
// endpoints get a Dialer, which stamps every outbound connection with the
// (from, to) pair its faults are keyed by; server-side listeners can be
// wrapped with Listener, whose accepted connections match wildcard rules.
// Each direction of a link carries an independent Profile, so asymmetric
// partitions (A cannot reach B while B still reaches A) are first-class.
//
// The injectable faults are the cluster tier's failure model (DESIGN.md
// §12): full and asymmetric partitions, added latency with seeded jitter,
// byte-trickle slow links, immediate connection resets, and
// drop-after-N-bytes connection death. Profiles are steerable mid-test:
// every Read/Write consults the current profile under the Network's lock,
// so Partition/Heal/SetLink take effect on established connections, not
// just future dials.
//
// Determinism caveat: fault *decisions* (cut or not, reset threshold,
// jitter amounts in draw order) derive only from the seed and the script.
// When multiple connections draw jitter concurrently, the goroutine
// schedule decides which draw lands on which connection; everything else
// is schedule-independent.
package netchaos

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCut is the failure every operation on a cut link returns (wrapped in a
// *net.OpError, so net.Error handling sees a non-timeout network error).
var ErrCut = errors.New("netchaos: link cut")

// ErrReset is returned once a connection has been reset by fault injection
// (drop-after-N-bytes, an explicit ResetConns, or a full Partition).
var ErrReset = errors.New("netchaos: connection reset by fault injection")

// Wildcard matches any endpoint name in a link rule. Accepted (server-side)
// connections have an unknown remote identity and match only through it.
const Wildcard = "*"

// Profile is the fault behaviour of one link direction. The zero value is a
// clean link.
type Profile struct {
	// Cut blocks this direction: dials from the source fail immediately
	// and writes on established connections fail with ErrCut. The reverse
	// direction is unaffected — set both (or use Partition) for a full
	// partition.
	Cut bool

	// Latency is added before every write crosses the link; Jitter adds a
	// further seeded uniform [0, Jitter) on top. Reads of data flowing in
	// this direction are delayed the same way on the receiving side.
	Latency time.Duration
	Jitter  time.Duration

	// TrickleBytes, when positive, caps how many bytes one Write delivers
	// at a time; TricklePause is slept between chunks. Together they model
	// a slow or congested link without cutting it.
	TrickleBytes int
	TricklePause time.Duration

	// DropAfterBytes, when positive, resets the connection once this many
	// bytes have crossed in this direction — the classic mid-transfer
	// failure that leaves the peer with half a frame.
	DropAfterBytes int64
}

// clean reports whether the profile injects nothing.
func (p Profile) clean() bool { return p == Profile{} }

// link is a directed endpoint pair.
type link struct{ from, to string }

// Stats counts the faults a Network has injected, for test assertions and
// drill verdicts.
type Stats struct {
	DialsBlocked int64 // dials refused because the out direction was cut
	WritesCut    int64 // writes failed on a cut direction
	ReadsCut     int64 // reads failed on a cut direction
	ConnsReset   int64 // connections killed (drop-after, Partition, ResetConns)
	Delays       int64 // sleeps injected (latency, jitter, trickle pauses)
}

// Network is a deterministic fault plane over real connections. All methods
// are safe for concurrent use.
type Network struct {
	mu sync.Mutex
	//mcvet:guardedby mu
	rng uint64 // splitmix64 state, seeded
	//mcvet:guardedby mu
	links map[link]Profile
	//mcvet:guardedby mu
	conns map[*Conn]struct{}

	dialsBlocked atomic.Int64
	writesCut    atomic.Int64
	readsCut     atomic.Int64
	connsReset   atomic.Int64
	delays       atomic.Int64
}

// New returns a Network whose jitter stream is a pure function of seed.
func New(seed uint64) *Network {
	return &Network{
		rng:   seed ^ 0x9e3779b97f4a7c15,
		links: make(map[link]Profile),
		conns: make(map[*Conn]struct{}),
	}
}

// next advances the seeded splitmix64 stream. Callers hold mu.
//
//mcvet:locked
func (n *Network) next() uint64 {
	n.rng += 0x9e3779b97f4a7c15
	z := n.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SetLink installs the profile for one direction, replacing any previous
// rule. A zero Profile restores a clean direction.
func (n *Network) SetLink(from, to string, p Profile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p.clean() {
		delete(n.links, link{from, to})
		return
	}
	n.links[link{from, to}] = p
}

// SetPair installs the profile on both directions between a and b.
func (n *Network) SetPair(a, b string, p Profile) {
	n.SetLink(a, b, p)
	n.SetLink(b, a, p)
}

// Partition cuts both directions between a and b and resets every
// established connection between them — the clean "cable pulled" fault.
func (n *Network) Partition(a, b string) {
	n.SetPair(a, b, Profile{Cut: true})
	n.ResetConns(a, b)
}

// PartitionOneWay cuts only the from→to direction: from can no longer send
// (or dial), while traffic to it still flows. Established connections stay
// up; their writes from the cut side fail.
func (n *Network) PartitionOneWay(from, to string) {
	n.SetLink(from, to, Profile{Cut: true})
}

// Heal restores both directions between a and b to clean.
func (n *Network) Heal(a, b string) {
	n.SetPair(a, b, Profile{})
}

// HealAll drops every link rule; established connections stay up.
func (n *Network) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links = make(map[link]Profile)
}

// ResetConns kills every established connection between a and b (either
// orientation) without changing the link profiles.
func (n *Network) ResetConns(a, b string) {
	n.mu.Lock()
	var victims []*Conn
	for c := range n.conns {
		if (c.local == a && c.remote == b) || (c.local == b && c.remote == a) {
			victims = append(victims, c)
		}
	}
	n.mu.Unlock()
	for _, c := range victims {
		c.kill()
	}
}

// Stats snapshots the injected-fault counters.
func (n *Network) Stats() Stats {
	return Stats{
		DialsBlocked: n.dialsBlocked.Load(),
		WritesCut:    n.writesCut.Load(),
		ReadsCut:     n.readsCut.Load(),
		ConnsReset:   n.connsReset.Load(),
		Delays:       n.delays.Load(),
	}
}

// profile resolves the current rule for one direction: exact pair first,
// then from→*, then *→to, then *→* — so listener-side connections (whose
// remote is Wildcard) still match endpoint-wide rules.
func (n *Network) profile(from, to string) Profile {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.profileLocked(from, to)
}

//mcvet:locked
func (n *Network) profileLocked(from, to string) Profile {
	if p, ok := n.links[link{from, to}]; ok {
		return p
	}
	if p, ok := n.links[link{from, Wildcard}]; ok {
		return p
	}
	if p, ok := n.links[link{Wildcard, to}]; ok {
		return p
	}
	return n.links[link{Wildcard, Wildcard}]
}

// delayFor draws the deterministic sleep for one crossing: latency plus
// seeded uniform [0, Jitter).
func (n *Network) delayFor(p Profile) time.Duration {
	d := p.Latency
	if p.Jitter > 0 {
		n.mu.Lock()
		d += time.Duration(n.next() % uint64(p.Jitter))
		n.mu.Unlock()
	}
	return d
}

// Dialer returns a dial function for the named endpoint, in the shape the
// wire client and cluster replicator accept. Dials consult the from→addr
// direction: a cut link refuses immediately (no timeout stall), a live one
// dials for real and wraps the connection for ongoing fault injection.
func (n *Network) Dialer(from string) func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		if n.profile(from, addr).Cut {
			n.dialsBlocked.Add(1)
			return nil, &net.OpError{Op: "dial", Net: "tcp", Err: fmt.Errorf("%w (%s -> %s)", ErrCut, from, addr)}
		}
		nc, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return n.wrap(nc, from, addr), nil
	}
}

// Listener wraps ln so accepted connections pass through the fault plane.
// The remote endpoint of an accepted connection is unknown (TCP source
// ports carry no identity), so these connections match only wildcard and
// name→Wildcard rules.
func (n *Network) Listener(name string, ln net.Listener) net.Listener {
	return &chaosListener{Listener: ln, n: n, name: name}
}

type chaosListener struct {
	net.Listener
	n    *Network
	name string
}

func (l *chaosListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.n.wrap(nc, l.name, Wildcard), nil
}

// wrap registers a fault-injected connection between the named endpoints.
func (n *Network) wrap(nc net.Conn, local, remote string) *Conn {
	c := &Conn{Conn: nc, n: n, local: local, remote: remote, done: make(chan struct{})}
	n.mu.Lock()
	n.conns[c] = struct{}{}
	n.mu.Unlock()
	return c
}

// Conn is one fault-injected connection. Writes cross the local→remote
// direction, reads deliver remote→local traffic; each consults its
// direction's current profile on every call, so steering a link mid-test
// affects connections already established over it.
type Conn struct {
	net.Conn
	n             *Network
	local, remote string

	closeOnce sync.Once
	killed    atomic.Bool
	done      chan struct{}

	wrote atomic.Int64 // bytes delivered local→remote
	read  atomic.Int64 // bytes delivered remote→local
}

// kill resets the connection from the fault plane: subsequent operations
// fail with ErrReset and any in-flight injected sleep is interrupted.
func (c *Conn) kill() {
	if c.killed.CompareAndSwap(false, true) {
		c.n.connsReset.Add(1)
		c.teardown()
	}
}

func (c *Conn) teardown() {
	c.closeOnce.Do(func() {
		close(c.done)
		c.Conn.Close()
		c.n.mu.Lock()
		delete(c.n.conns, c)
		c.n.mu.Unlock()
	})
}

// Close unregisters and closes the underlying connection.
func (c *Conn) Close() error {
	c.teardown()
	return nil
}

// sleep blocks for d unless the connection is reset or closed first.
func (c *Conn) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	c.n.delays.Add(1)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.done:
		return c.opErr("write", ErrReset)
	}
}

func (c *Conn) opErr(op string, err error) error {
	return &net.OpError{Op: op, Net: "tcp", Err: fmt.Errorf("%w (%s <-> %s)", err, c.local, c.remote)}
}

// Write applies the local→remote profile: cut check, latency+jitter,
// drop-after-N-bytes, then the write itself, trickled when configured.
func (c *Conn) Write(p []byte) (int, error) {
	if c.killed.Load() {
		return 0, c.opErr("write", ErrReset)
	}
	prof := c.n.profile(c.local, c.remote)
	if prof.Cut {
		c.n.writesCut.Add(1)
		return 0, c.opErr("write", ErrCut)
	}
	if err := c.sleep(c.n.delayFor(prof)); err != nil {
		return 0, err
	}
	written := 0
	for written < len(p) {
		if prof.DropAfterBytes > 0 && c.wrote.Load() >= prof.DropAfterBytes {
			c.kill()
			return written, c.opErr("write", ErrReset)
		}
		chunk := len(p) - written
		if prof.TrickleBytes > 0 && chunk > prof.TrickleBytes {
			chunk = prof.TrickleBytes
		}
		if prof.DropAfterBytes > 0 {
			if room := int(prof.DropAfterBytes - c.wrote.Load()); chunk > room {
				chunk = room
			}
		}
		nw, err := c.Conn.Write(p[written : written+chunk])
		written += nw
		c.wrote.Add(int64(nw))
		if err != nil {
			if c.killed.Load() {
				err = c.opErr("write", ErrReset)
			}
			return written, err
		}
		if written < len(p) && prof.TricklePause > 0 {
			if err := c.sleep(prof.TricklePause); err != nil {
				return written, err
			}
		}
	}
	return written, nil
}

// Read applies the remote→local profile: a cut inbound direction fails the
// read, delivered bytes are delayed by latency+jitter and counted against
// drop-after-N-bytes.
func (c *Conn) Read(p []byte) (int, error) {
	if c.killed.Load() {
		return 0, c.opErr("read", ErrReset)
	}
	prof := c.n.profile(c.remote, c.local)
	if prof.Cut {
		c.n.readsCut.Add(1)
		return 0, c.opErr("read", ErrCut)
	}
	nr, err := c.Conn.Read(p)
	if nr > 0 {
		c.read.Add(int64(nr))
		if serr := c.sleep(c.n.delayFor(prof)); serr != nil && err == nil {
			return nr, serr
		}
		if prof.DropAfterBytes > 0 && c.read.Load() >= prof.DropAfterBytes {
			c.kill()
			return nr, c.opErr("read", ErrReset)
		}
	}
	if err != nil && c.killed.Load() {
		err = c.opErr("read", ErrReset)
	}
	return nr, err
}
