package main

import (
	"math/big"
	"math/rand"
	"sync"
	"time"
)

// The reference box is a virtual machine on a shared host, and its
// speed drifts by a third or more over tens of seconds. A fixed
// reference loop timed right before and after an operation tracks that
// drift, so the untraced run reports every time scaled to the host's
// nominal speed: wall time × refNominal / (mean of the two reference
// times). The loop is math/big GCDs of 2048-bit numbers on as many
// goroutines as the program has workers. Of the loops tried, it tracked
// the lane kernel best: its time correlated 0.76 with scan-pairs runs on
// the reference box, against 0.30 for a math/big multiply-and-reduce
// loop. It runs only standard-library code on constant inputs, so a
// change to the program moves the scaled times exactly as it moves the
// wall times; only the host's drift divides out.
const (
	refPairs = 64   // distinct operand pairs per goroutine
	refGCDs  = 4000 // GCDs per goroutine in one reference timing
	// refNominal is the reference time taken as the host's nominal
	// speed, in seconds: about the loop's time on the reference box,
	// with 2 goroutines, in a calm spell.
	refNominal = 0.1
)

// hostClock times the reference loop around operations.
type hostClock struct {
	a, b  [][]*big.Int // operands per goroutine
	last  float64      // latest reference time, seconds (0: none yet)
	times []float64    // every reference time taken
}

// newHostClock prepares the reference loop for workers goroutines. The
// operands are fixed: every run and every seed times the same work.
func newHostClock(workers int) *hostClock {
	r := rand.New(rand.NewSource(1))
	h := &hostClock{a: make([][]*big.Int, workers), b: make([][]*big.Int, workers)}
	limit := new(big.Int).Lsh(big.NewInt(1), 2048)
	for w := 0; w < workers; w++ {
		for i := 0; i < refPairs; i++ {
			a, b := new(big.Int).Rand(r, limit), new(big.Int).Rand(r, limit)
			h.a[w] = append(h.a[w], a.SetBit(a, 2047, 1))
			h.b[w] = append(h.b[w], b.SetBit(b, 2047, 1))
		}
	}
	return h
}

// reference runs the reference loop once and returns its wall time.
func (h *hostClock) reference() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for w := range h.a {
		wg.Add(1)
		go func(a, b []*big.Int) {
			defer wg.Done()
			var z big.Int
			for i := 0; i < refGCDs; i++ {
				z.GCD(nil, nil, a[i%refPairs], b[i%refPairs])
			}
		}(h.a[w], h.b[w])
	}
	wg.Wait()
	d := time.Since(start).Seconds()
	h.times = append(h.times, d)
	return d
}

// start takes the reference timing that opens an interval, unless the
// last interval's closing timing can serve.
func (h *hostClock) start() {
	if h.last == 0 {
		h.last = h.reference()
	}
}

// split closes the interval since the last reference timing with a new
// one, which also opens the next, and returns the factor that scales
// wall times in the interval to nominal host speed.
func (h *hostClock) split() float64 {
	before := h.last
	h.last = h.reference()
	return 2 * refNominal / (before + h.last)
}

// around runs op in an interval of its own and returns its factor.
func (h *hostClock) around(op func()) float64 {
	h.start()
	op()
	return h.split()
}

// speed is the host's median speed over the run's reference timings as
// a share of nominal (0 when none was taken).
func (h *hostClock) speed() float64 {
	if len(h.times) == 0 {
		return 0
	}
	return refNominal / median(h.times)
}
