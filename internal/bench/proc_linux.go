package bench

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// rusageThread is RUSAGE_THREAD, which package syscall does not name.
const rusageThread = 1

func cpuMicros(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF or RUSAGE_THREAD on Linux
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec)*1e6 + float64(ru.Utime.Usec+ru.Stime.Usec)
}

// processCPUMicros is the process's user+sys CPU time, all threads.
func processCPUMicros() float64 { return cpuMicros(syscall.RUSAGE_SELF) }

// threadCPUMicros is the calling OS thread's user+sys CPU time; meaningful
// only while the goroutine is locked to its thread.
func threadCPUMicros() float64 { return cpuMicros(rusageThread) }

func gettid() int32 { return int32(syscall.Gettid()) }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/self/status")
}
