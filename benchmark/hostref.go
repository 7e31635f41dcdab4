package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The sandbox this benchmark runs in slows down by 10-50 % for minutes at a
// time (the same op repeated for a quarter of an hour shows it), which is
// longer than a run, so no statistic inside a run can see past it. What a run
// can do is time a fixed piece of work of its own, between its ops, and state
// its times relative to that: every time a run reports is scaled by
// refNominalMs over the run's median reference time. Over 54 back-to-back
// blocks of ten identical fig8d_large ops the spread of the block means fell
// from 12.6 % to 6.2 % this way. The reference is plain arithmetic over this
// file's own buffer: no change to the repository can make it faster.

// refNominalMs is what the reference takes on the host the benchmark was
// defined on when that host is quiet. Scaled times read as milliseconds on
// such a host.
const refNominalMs = 40.0

type hostRef struct {
	perm    []int32
	samples []float64 // ms
	sink    uint64
}

func newHostRef() (*hostRef, error) {
	const n = 1 << 20 // 4 MB: larger than L2, so the shared cache counts
	// Mapped, not allocated: 4 MB of live Go heap would move the collector's
	// pacing, and with it the workload's own peak RSS, by twice that.
	buf, err := syscall.Mmap(-1, 0, n*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	h := &hostRef{perm: unsafe.Slice((*int32)(unsafe.Pointer(&buf[0])), n)}
	for i := range h.perm {
		h.perm[i] = int32(i)
	}
	// Sattolo's shuffle: one cycle through every slot, so the chase below
	// cannot settle into a short loop. The generator is fixed; the work is
	// the same in every process.
	x := uint32(12345)
	for i := n - 1; i > 0; i-- {
		x = x*1664525 + 1013904223
		j := int(x>>8) % i
		h.perm[i], h.perm[j] = h.perm[j], h.perm[i]
	}
	h.sample() // touch every page once, untimed
	h.samples = h.samples[:0]
	return h, nil
}

// sample times one pass of the reference: a dependent chase through the
// buffer (memory latency) and a multiply-xor chain (the ALU).
func (h *hostRef) sample() {
	t0 := time.Now()
	p, acc := int32(0), uint64(0)
	for i := 0; i < len(h.perm); i++ {
		p = h.perm[p]
		acc += uint64(p) * 31 % 7
	}
	x := uint64(14695981039346656037)
	for i := uint64(0); i < 6_000_000; i++ {
		x = (x ^ i) * 1099511628211
	}
	h.sink += acc + x
	h.samples = append(h.samples, ms(time.Since(t0)))
}

// factor is what a measured time is multiplied by (and a rate divided by).
func (h *hostRef) factor() float64 {
	if len(h.samples) == 0 {
		return 1
	}
	return refNominalMs / median(h.samples)
}
