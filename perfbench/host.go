package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// refKernel is a fixed compute kernel that exercises what the simulator
// stresses — a dependent chain of xorshift draws indexing a table that fits
// in L2 — so its time tracks the host's speed, not the code under test.
func refKernel() uint64 {
	const tableWords = 1 << 15 // 256 KiB
	table := make([]uint64, tableWords)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range table {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[i] = x
	}
	var acc uint64
	for i := 0; i < 1<<21; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x ^ acc) & (tableWords - 1)
		acc += table[j]
		table[j] = acc
	}
	return acc
}

// refSink keeps the kernel's result live.
var refSink uint64

// hostRef times the reference kernel reps times and returns the samples in
// milliseconds.
func hostRef(reps int) []float64 {
	out := make([]float64, reps)
	for i := range out {
		start := time.Now()
		refSink += refKernel()
		out[i] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	return out
}

// stealTicks reads the aggregate steal time from /proc/stat, in clock
// ticks: CPU time the hypervisor gave to other guests while this one was
// runnable. It returns 0 where the field is unavailable.
func stealTicks() uint64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			v, err := strconv.ParseUint(fields[8], 10, 64)
			if err != nil {
				return 0
			}
			return v
		}
	}
	return 0
}

// peakRSSMB returns the peak resident set (VmHWM) of process pid ("self" for
// this one) in MiB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/%s/status", pid)
}

// hostRecord brackets a timed phase with the reference kernel and the steal
// counter, so a slow run can be told apart from a slow host.
type hostRecord struct {
	before, after []float64
	steal0        uint64
	steal         uint64
}

const hostRefReps = 5

func startHost() *hostRecord {
	h := &hostRecord{before: hostRef(hostRefReps)}
	h.steal0 = stealTicks()
	return h
}

func (h *hostRecord) finish() {
	h.steal = stealTicks() - h.steal0
	h.after = hostRef(hostRefReps)
}

// refMS is the median kernel time over both brackets.
func (h *hostRecord) refMS() float64 {
	return median(append(append([]float64(nil), h.before...), h.after...))
}

// selfUserCPU is the user-mode CPU time this process has used, all
// threads. Time the hypervisor steals from the guest is not in it, nor is
// kernel time, which on a shared virtual disk mostly measures the
// neighbours' I/O.
func selfUserCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano())
}

// procUserCPU is the user-mode CPU time process pid has used, from
// /proc/<pid>/stat (field 14, in 10 ms clock ticks).
func procUserCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, fmt.Errorf("cpu time: %w", err)
	}
	// Fields after the parenthesized command name start at field 3.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 12 {
		return 0, fmt.Errorf("cpu time: malformed /proc/%d/stat", pid)
	}
	ticks, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("cpu time: %w", err)
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}
