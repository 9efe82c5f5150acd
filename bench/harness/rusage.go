package harness

import (
	"syscall"
	"time"
)

// CPUTime reports the user+system CPU time this process has consumed
// so far, over all of its threads.
func CPUTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return tvDuration(ru.Utime) + tvDuration(ru.Stime), nil
}

// PeakRSSBytes reports the process's peak resident set size.
func PeakRSSBytes() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return int64(ru.Maxrss) << 10, nil // Linux reports KiB
}

func tvDuration(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}
