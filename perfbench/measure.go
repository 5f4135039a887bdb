package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSample is one reading of the process-level counters the
// end-to-end metrics are differences of.
type hostSample struct {
	wall      time.Time
	cpu       time.Duration // user + system CPU of the whole process
	allocObjs uint64
	allocB    uint64
	gcCPU     float64 // /cpu/classes/gc/total, CPU seconds
	totalCPU  float64 // /cpu/classes/total, CPU seconds
	gcCycles  uint64
}

var hostMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readHost() hostSample {
	samples := make([]metrics.Sample, len(hostMetricNames))
	for i, name := range hostMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return hostSample{
		wall:      time.Now(),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocObjs: samples[0].Value.Uint64(),
		allocB:    samples[1].Value.Uint64(),
		gcCPU:     samples[2].Value.Float64(),
		totalCPU:  samples[3].Value.Float64(),
		gcCycles:  samples[4].Value.Uint64(),
	}
}

// runCost is the host cost of one pass of a workload after set-up.
type runCost struct {
	wallS, cpuS       float64
	allocObjs, allocB uint64
	gcCPU, totalCPU   float64
	gcCycles          uint64
}

// timeRun measures fn from a freshly collected heap. The runtime only
// publishes its CPU-class estimates at the end of a GC cycle, so a
// collection closes the interval too; wall and CPU time stop before it.
func timeRun(fn func() error) (runCost, error) {
	runtime.GC()
	a := readHost()
	err := fn()
	b := readHost()
	runtime.GC()
	c := readHost()
	return runCost{
		wallS:     b.wall.Sub(a.wall).Seconds(),
		cpuS:      (b.cpu - a.cpu).Seconds(),
		allocObjs: b.allocObjs - a.allocObjs,
		allocB:    b.allocB - a.allocB,
		gcCPU:     c.gcCPU - a.gcCPU,
		totalCPU:  c.totalCPU - a.totalCPU,
		gcCycles:  c.gcCycles - a.gcCycles,
	}, err
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
