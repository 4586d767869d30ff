package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks. sorted must be ascending and
// non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// dist is a sorted sample with the summary points the reports print.
type dist []float64

// newDist sorts a copy of xs.
func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

func (d dist) q(q float64) float64 { return quantile(d, q) }

// mean returns the arithmetic mean (0 for an empty sample).
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

// String renders n, the quartiles and the extremes, for the
// human-readable report lines.
func (d dist) String() string {
	if len(d) == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d q1=%.4g median=%.4g q3=%.4g min=%.4g max=%.4g",
		len(d), d.q(0.25), d.q(0.5), d.q(0.75), d[0], d[len(d)-1])
}

// selfCPU returns the user+system CPU time this process has consumed.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the kernel's USER_HZ: the unit of the utime/stime
// fields of /proc/<pid>/stat. It is 100 on every Linux port Go
// supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the user+system CPU time of another process from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold
	// spaces; fields are counted after its closing parenthesis.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat of %d: no command field", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat of %d: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat of %d: bad utime/stime %q %q", pid, f[11], f[12])
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB returns VmHWM of a process (pid 0: this one) in MiB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// steadyQuantile is the q-quantile of xs made robust against the
// machine's slow spells: the samples are grouped by when they were
// taken into windows of length seg, the quantile is taken inside each
// window, and the median over the windows is returned. A stall of a
// second moves the tail quantile of the whole run, but only one
// window's. Windows with fewer than minPerWindow samples are left out;
// if none has enough, the quantile of all samples is returned.
func steadyQuantile(at []time.Duration, xs []float64, seg time.Duration, q float64) float64 {
	const minPerWindow = 10
	windows := map[int64][]float64{}
	for i, x := range xs {
		w := int64(at[i] / seg)
		windows[w] = append(windows[w], x)
	}
	var qs []float64
	for _, w := range windows {
		if len(w) >= minPerWindow {
			qs = append(qs, newDist(w).q(q))
		}
	}
	if len(qs) == 0 {
		return newDist(xs).q(q)
	}
	return newDist(qs).q(0.5)
}
