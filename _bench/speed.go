package main

import (
	"math"
	"runtime"
	"syscall"
	"unsafe"
)

// The machine's speed drifts: on a virtual machine that shares its
// host, the same CPU-bound work can take 1.5× the CPU time it took a
// few minutes earlier, because other tenants contend for the host's
// cores, caches and memory. The benchmark samples two fixed probes
// between units of work throughout a run — one bound by integer
// arithmetic, one by loads and stores at random places of a buffer far
// larger than the caches — and scales the run's CPU seconds by the
// geometric mean of nominal / (median probe time) over the two probes:
// the result is the CPU time the work would have taken at the speed
// where the probes take their nominal times. The probes are the
// benchmark's own code, allocate nothing and call nothing of the
// program, so a change to the program cannot move them.

// Nominal probe CPU times in seconds (about their medians on the
// reference machine).
const (
	aluNominal = 0.005
	memNominal = 0.009
)

// memWords is the memory probe's working set in 8-byte words (32 MiB).
const memWords = 1 << 22

var memBuf = make([]uint64, memWords)

// probeSink keeps the arithmetic probe's result alive.
var probeSink uint64

// Probe CPU times of the run, in seconds.
var aluSamples, memSamples []float64

// probesWarm records that the probes have run once untimed.
var probesWarm bool

// sampleSpeed runs each probe n times and records each run's CPU time.
func sampleSpeed(n int) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if !probesWarm {
		// The first memory probe faults memBuf's pages in, which says
		// nothing about the machine's speed.
		aluProbe()
		memProbe()
		probesWarm = true
	}
	for i := 0; i < n; i++ {
		t0 := threadCPUSeconds()
		aluProbe()
		t1 := threadCPUSeconds()
		memProbe()
		t2 := threadCPUSeconds()
		aluSamples = append(aluSamples, t1-t0)
		memSamples = append(memSamples, t2-t1)
	}
}

// aluProbe is a fixed run of xorshift steps, all in registers.
func aluProbe() {
	x := uint64(88172645463325252)
	for i := 0; i < 1<<21; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink += x
}

// memProbe is a fixed run of read-modify-writes at pseudo-random
// places of memBuf.
func memProbe() {
	x := uint64(88172645463325252)
	for i := 0; i < 1<<19; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		memBuf[x&(memWords-1)] += x
	}
}

// speedFactor turns the run's CPU seconds into CPU seconds at the
// nominal speed: the geometric mean over the two probes of the nominal
// time over the run's median probe time. The median leaves out the
// few probe runs an interrupt or a page fault lengthens.
func speedFactor() float64 {
	return math.Sqrt(aluNominal / median(aluSamples) * memNominal / median(memSamples))
}

// threadCPUSeconds is the CPU time of the calling OS thread, read with
// clock_gettime(CLOCK_THREAD_CPUTIME_ID), which unlike getrusage counts
// the thread's current time slice to the nanosecond.
func threadCPUSeconds() float64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return float64(ts.Nano()) / 1e9
}
