package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// header records where a result came from; it opens every report and
// span file so two results are only compared knowingly.
type header struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func hostHeader() header {
	h := header{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        procField("/proc/cpuinfo", "model name"),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// procField returns the first "key : value" line's value from a /proc
// text file; empty when the file or key is absent (non-Linux hosts).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB;
// 0 where /proc does not report it.
func peakRSSMB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is a snapshot of the process counters a timed section is charged
// against; since subtracts an earlier snapshot.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	gcPause time.Duration
}

func takeUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall: time.Now(), cpu: cpuTime(),
		mallocs: ms.Mallocs, gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// section is what a timed section consumed.
type section struct {
	wall, cpu, gcPause time.Duration
	mallocs            uint64
}

func (u usage) since(start usage) section {
	return section{
		wall: u.wall.Sub(start.wall), cpu: u.cpu - start.cpu,
		gcPause: u.gcPause - start.gcPause, mallocs: u.mallocs - start.mallocs,
	}
}

func (s section) plus(o section) section {
	return section{
		wall: s.wall + o.wall, cpu: s.cpu + o.cpu,
		gcPause: s.gcPause + o.gcPause, mallocs: s.mallocs + o.mallocs,
	}
}
