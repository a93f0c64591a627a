// Serving: McCuckoo over the network. An in-process wire server binds a
// sharded table behind the Store interface, then a fleet of clients talks
// to it over real TCP: pipelined point ops and batched round trips, each
// connection served by one server goroutine with TCP flow control as the
// backpressure, and a graceful drain at the end. The same protocol is
// served standalone by cmd/mcserved.
//
//	go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"mccuckoo"
	"mccuckoo/internal/wire"
)

func main() {
	table, err := mccuckoo.NewSharded(1<<16, 8, mccuckoo.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	srv, err := wire.NewServer(wire.Config{Store: table})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()
	fmt.Printf("serving a %d-slot sharded table on %s\n\n", table.Capacity(), addr)

	// A fleet of clients, each loading its own key range with one batched
	// round trip per thousand pairs, then reading a sample back with
	// pipelined point lookups.
	const fleet = 4
	const perClient = 10_000
	start := time.Now()
	var wg sync.WaitGroup
	for f := 0; f < fleet; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			c, err := wire.Dial(wire.ClientConfig{Addr: addr, Conns: 2})
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close()

			base := uint64(f) * perClient
			keys := make([]uint64, 1000)
			vals := make([]uint64, 1000)
			for off := uint64(0); off < perClient; off += 1000 {
				for i := range keys {
					keys[i] = base + off + uint64(i)
					vals[i] = keys[i] * 7
				}
				if _, err := c.PutBatch(keys, vals); err != nil {
					log.Fatalf("client %d: %v", f, err)
				}
			}

			// Pipelined reads: many goroutines share the pooled client, so
			// lookups overlap on the wire instead of paying one RTT each.
			var readers sync.WaitGroup
			for r := 0; r < 8; r++ {
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					for i := 0; i < 500; i++ {
						k := base + uint64((r*500+i)%perClient)
						v, ok, err := c.Get(k)
						if err != nil || !ok || v != k*7 {
							log.Fatalf("client %d: get %d = %d,%v (%v)", f, k, v, ok, err)
						}
					}
				}(r)
			}
			readers.Wait()
		}(f)
	}
	wg.Wait()
	elapsed := time.Since(start)

	c, err := wire.Dial(wire.ClientConfig{Addr: addr})
	if err != nil {
		log.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		log.Fatal(err)
	}
	c.Close()
	fmt.Printf("fleet of %d clients finished in %v\n", fleet, elapsed.Round(time.Millisecond))
	fmt.Printf("server-side table: %d items, load %.1f%%, %d inserts, %d lookups\n\n",
		st.Len, st.LoadRatio*100, st.Inserts, st.Lookups)

	fmt.Println("server metrics exposition (excerpt):")
	srv.WritePrometheus(excerptWriter{})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndrained cleanly")
}

// excerptWriter prints only the counter lines, skipping HELP/TYPE noise.
type excerptWriter struct{}

func (excerptWriter) Write(p []byte) (int, error) {
	for _, line := range splitLines(p) {
		if len(line) > 0 && line[0] != '#' {
			fmt.Fprintf(os.Stdout, "  %s\n", line)
		}
	}
	return len(p), nil
}

func splitLines(p []byte) []string {
	var out []string
	start := 0
	for i, b := range p {
		if b == '\n' {
			out = append(out, string(p[start:i]))
			start = i + 1
		}
	}
	if start < len(p) {
		out = append(out, string(p[start:]))
	}
	return out
}
