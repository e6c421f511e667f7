package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples strictly above the q-quantile, the
// support a tail percentile rests on.
func beyond(xs []float64, q float64) int {
	v, n := quantile(xs, q), 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resetPeakRSS restarts the kernel's resident-set high-water mark,
// so that VmHWM covers only what follows. It reports whether the
// reset took effect.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) >= 2 && string(f[0]) == "VmHWM:" {
			kb, _ := strconv.ParseFloat(string(f[1]), 64)
			return kb / 1024
		}
	}
	return 0
}

// rssWindows records the resident-set peak of each window of a
// measurement: the median window peak is steadier than one maximum
// over the whole run, which a single badly timed collection sets.
type rssWindows struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	reset bool // false: the kernel refused the reset, peaks cover the process
}

const rssWindow = time.Second

// startRSSWindows returns freed heap to the OS and starts the first
// window.
func startRSSWindows() *rssWindows {
	runtime.GC()
	debug.FreeOSMemory()
	r := &rssWindows{stop: make(chan struct{}), done: make(chan struct{}), reset: resetPeakRSS()}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(rssWindow)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				r.peaks = append(r.peaks, peakRSSMB())
				return
			case <-tick.C:
				r.peaks = append(r.peaks, peakRSSMB())
				resetPeakRSS()
			}
		}
	}()
	return r
}

// finish closes the last window and returns the median window peak.
func (r *rssWindows) finish() float64 {
	close(r.stop)
	<-r.done
	return median(r.peaks)
}

// processCPU is the user and system CPU time the process has used.
// Unlike wall time it excludes time the host steals from this
// machine's processors.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
