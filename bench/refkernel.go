package main

import (
	"math"
	"slices"
	"syscall"
	"time"
)

// The reference kernel is a fixed piece of stdlib-only work that brackets
// every timed segment. The shared 2-vCPU box drifts by tens of percent for
// minutes at a time; the kernel drifts with it, so dividing a segment's time
// by the kernel's measured/nominal ratio reports the segment in "reference
// seconds" — the time it would have taken on the quiet box the nominal value
// was frozen on. The mix (branchy integer sort, cache-missing gather, float
// accumulate) follows what the engine does: map walks, heap pushes, dot
// products. See README.md §Reference kernel for the calibration.
const (
	refSortLen   = 1 << 16 // 512 KiB of uint64 sorted per run
	refGatherLen = 1 << 19 // 4 MiB table, larger than L2
	refGathers   = 100_000
	refFlops     = 1 << 19

	// nominalRef is the kernel's median run time between segments on the
	// quiet box (caches cold, the collector finishing the segment's garbage;
	// a back-to-back loop takes 10 ms), frozen here so reference seconds ≈
	// wall seconds when nothing else runs.
	nominalRef = 14.0e-3

	// refSlope is how much steeper than the kernel the workloads slow down
	// when the box gets busy: segment time ∝ kernel time^refSlope, fitted
	// between 1.2 (fanout_stream) and 1.7 (the HTTP workloads) in log-log
	// regressions over quiet and busy spells (README.md). The engine walks a
	// 150 MB heap that stays in the host's shared L3 only while the
	// neighbours are quiet; the kernel's 4.5 MiB mostly survive.
	refSlope = 1.5
)

type refKernel struct {
	sortBuf []uint64
	table   []uint64
	state   uint64
	sink    float64
}

func newRefKernel() *refKernel {
	k := &refKernel{
		sortBuf: make([]uint64, refSortLen),
		table:   make([]uint64, refGatherLen),
		state:   0x9E3779B97F4A7C15,
	}
	for i := range k.table {
		k.table[i] = k.next()
	}
	return k
}

func (k *refKernel) next() uint64 {
	x := k.state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	k.state = x
	return x
}

// run executes the kernel once and returns its wall time in seconds. It
// allocates nothing and makes no system call besides the two clock reads.
func (k *refKernel) run() float64 {
	start := time.Now()
	for i := range k.sortBuf {
		k.sortBuf[i] = k.next()
	}
	slices.Sort(k.sortBuf)
	idx := k.sortBuf[0]
	var acc uint64
	for i := 0; i < refGathers; i++ {
		v := k.table[idx&(refGatherLen-1)]
		acc += v
		idx = v ^ uint64(i)
	}
	f := 1.0
	for i := 0; i < refFlops; i++ {
		f = f*0.999999 + 1e-6*float64(i&7)
	}
	k.sink += f + float64(acc&1)
	return time.Since(start).Seconds()
}

// span is one timed piece of work with the machine speed that held around it.
type span struct {
	Raw   float64 // wall seconds
	CPU   float64 // user+sys seconds of the whole process
	Speed float64 // (nominalRef ÷ mean of the bracketing kernel runs)^refSlope
	Ref   float64 // mean of the bracketing kernel runs, seconds
}

// newSpan derives the machine speed from the kernel runs before and after.
func newSpan(raw, cpu, before, after float64) span {
	ref := (before + after) / 2
	return span{Raw: raw, CPU: cpu, Speed: math.Pow(nominalRef/ref, refSlope), Ref: ref}
}

func (s span) norm() float64    { return s.Raw * s.Speed }
func (s span) cpuNorm() float64 { return s.CPU * s.Speed }

// normaliser times pieces of work between reference-kernel runs; the kernel
// run after one piece is the kernel run before the next.
type normaliser struct {
	k       *refKernel
	last    float64 // kernel time that closed the previous piece, 0 if stale
	refTime float64 // total seconds spent inside the kernel
	spans   []span
}

func newNormaliser() *normaliser {
	n := &normaliser{k: newRefKernel()}
	n.k.run() // page in the buffers
	return n
}

func (n *normaliser) kernel() float64 {
	t := n.k.run()
	n.refTime += t
	return t
}

// reset forgets the closing kernel run, for use after untimed work that may
// have lasted long enough for the machine to drift.
func (n *normaliser) reset() { n.last = 0 }

// measure runs fn between two kernel runs and records the span.
func (n *normaliser) measure(fn func()) span {
	before := n.last
	if before == 0 {
		before = n.kernel()
	}
	cpu0 := processCPU()
	start := time.Now()
	fn()
	raw := time.Since(start).Seconds()
	cpu := processCPU() - cpu0
	after := n.kernel()
	n.last = after
	s := newSpan(raw, cpu, before, after)
	n.spans = append(n.spans, s)
	return s
}

// processCPU is the process's user+system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)*1e-6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
