package main

// Host-speed calibration. On a 2-vCPU Intel Xeon VM shared with other
// tenants, the same chunk of interpreter work runs at up to twice its usual
// time for seconds to minutes at a stretch: back-to-back 6 s windows of one
// campaign op differed by up to 47% in median time, which no in-run
// statistic can remove. A fixed probe loop that does not depend on the code
// under test, timed right before and after each operation, slows down with
// it. Every timed metric is the operation's wall time scaled by
// probeRefSeconds over the median probe time of the last probeWindow: wall
// time at the reference host speed.
//
// The probe is branchy switch dispatch, like the interpreter's, over two
// working sets: 512 KB, which fits in L2, and 4 MB, which does not. Its time
// is the geometric mean of the two. Against 3.5 s windows of two campaign
// ops on that VM, the raw op time varied by 16% (coefficient of variation),
// scaled by the 512 KB loop alone by 11%, and scaled by the pair by 9%. A
// pure ALU loop barely slowed, and random access over 8 MB alone tracked one
// op well and the other poorly.
//
// A single probe right after an operation runs on caches that operation
// left behind, so it varies with the operation's inputs. Scaling each
// pipeline search by the two probes around it spread ten runs by 8.5%
// between quartiles; scaling the same runs by their median probe spread
// them by 3.5%. A two-second window keeps most of that while still
// following a slow period that starts or ends within a run.

import (
	"math"
	"sort"
	"time"
)

// probeRefSeconds is the probe's time on the reference host in its usual
// state; it only sets the scale of the normalized times.
const probeRefSeconds = 0.0018

const probeIters = 250_000

// probeWindow is how far back an operation's host speed is taken from.
const probeWindow = 2 * time.Second

var (
	probeSmall = make([]uint64, 64<<10)  // 512 KB
	probeLarge = make([]uint64, 512<<10) // 4 MB
)

var probeSink uint64

type probeSample struct {
	at   time.Time // when the probe ended
	secs float64
}

// probes keeps every probe of the run in time order. Only the main
// goroutine probes.
var probes []probeSample

// probe runs the calibration loop over both working sets and records the
// geometric mean of their wall times.
func probe() {
	t := math.Sqrt(probeLoop(probeSmall) * probeLoop(probeLarge))
	probes = append(probes, probeSample{time.Now(), t})
}

// recentProbe is the median probe time over the last probeWindow.
func recentProbe() float64 {
	cut := time.Now().Add(-probeWindow)
	i := sort.Search(len(probes), func(i int) bool { return probes[i].at.After(cut) })
	xs := make([]float64, 0, len(probes)-i)
	for _, p := range probes[i:] {
		xs = append(xs, p.secs)
	}
	return median(xs)
}

// probeMedian is the median of every probe of the run: the host speed the
// run saw.
func probeMedian() float64 {
	xs := make([]float64, len(probes))
	for i, p := range probes {
		xs[i] = p.secs
	}
	return median(xs)
}

func probeLoop(data []uint64) float64 {
	code := [...]byte{0, 1, 2, 3, 1, 0, 2, 4, 3, 1, 0, 4, 5, 6}
	var regs [8]uint64
	regs[1] = 3
	mask := uint64(len(data) - 1)
	pc := 0
	t := time.Now()
	for i := 0; i < probeIters; i++ {
		switch code[pc] {
		case 0:
			regs[0] += regs[1]
		case 1:
			regs[1] ^= regs[0] << 1
		case 2:
			regs[2] = regs[0]*31 + regs[1]
		case 3:
			if regs[2]&1 == 0 {
				regs[3]++
			}
		case 4:
			regs[4] += regs[3] ^ regs[2]
		case 5:
			regs[5] = data[(regs[2]>>3)&mask]
		case 6:
			data[(regs[4]>>5)&mask] = regs[5] + regs[0]
		}
		if pc++; pc == len(code) {
			pc = 0
		}
	}
	probeSink += regs[4]
	return time.Since(t).Seconds()
}

// timed runs f between two probes and returns its wall time and its time
// normalized to the reference host speed, both in seconds. Back-to-back
// operations share the probe between them.
func timed(f func()) (raw, norm float64) {
	if len(probes) == 0 || time.Since(probes[len(probes)-1].at) > 5*time.Millisecond {
		probe()
	}
	t := time.Now()
	f()
	raw = time.Since(t).Seconds()
	probe()
	return raw, raw * probeRefSeconds / recentProbe()
}
