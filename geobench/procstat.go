package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is the unit of utime/stime in /proc/<pid>/stat: USER_HZ,
// which is 100 on every Linux ABI.
const clockTick = 10 * time.Millisecond

// procCPU returns the user+system CPU time a process has used so far.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesized and may hold spaces;
	// fields are counted from the last ')'.
	s := string(data)
	end := strings.LastIndexByte(s, ')')
	if end < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(s[end+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f)+2)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime %q %q", pid, f[11], f[12])
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procPeakRSS returns a process's peak resident set size (VmHWM) in bytes.
func procPeakRSS(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/status VmHWM %q: %w", pid, rest, err)
		}
		return kb << 10, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
