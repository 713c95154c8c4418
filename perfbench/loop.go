package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// closedLoop runs clients that each issue their next operation as soon as
// the previous one returns, until d has passed; operations in flight at
// the deadline finish. op receives its client and a run-wide operation
// index. It returns the wall time from start to the last completion.
func closedLoop(clients int, d time.Duration, op func(client int, i int64)) time.Duration {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op(c, next.Add(1)-1)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// repeatSetup runs open n times, keeping only the last result open, and
// returns it with the median set-up time: a run sets up several times so
// that setup_s is a median, not one sample. Memory is returned to the OS
// between rounds so the earlier rounds' garbage does not set the peak.
func repeatSetup[T any](n int, open func() (T, error), close func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		v, err := open()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < n-1 {
			close(v)
		}
		last = v
	}
	return last, median(secs), nil
}

// peakRSSMB reads the VmHWM (peak resident set) of a process in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
