package main

import (
	"runtime"
	"syscall"
	"time"
)

// processStart anchors setup_s: package initialisation is the earliest
// instant the program can observe.
var processStart = time.Now()

// cpuTime is the process's user+system CPU so far (getrusage), the
// benchmark's own load generator included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// liveHeapMB forces two collections and returns what survives them, in MB
// (1e6 bytes). The second collection empties the sync.Pool victim caches
// (pooled decoders and solver buffers survive exactly one), so the figure
// is what the tenants retain, not what the last requests left pooled.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// memCounters are the cumulative allocator counters a probe differences.
type memCounters struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
