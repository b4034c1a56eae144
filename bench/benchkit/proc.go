package benchkit

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
// It is 100 on every Linux the benchmark runs on; reading it properly
// needs cgo (sysconf), which the benchmark avoids.
const clockTick = 100

// ProcCPU returns the CPU time (user + system) a process has used so
// far, from /proc/<pid>/stat. Differences over a phase give the CPU
// that phase cost; the resolution is one tick (10 ms).
func ProcCPU(pid int) (seconds float64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime (fields 14 and 15). The command
// name (field 2) is parenthesised and may itself contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	fields := strings.Fields(stat[end+1:])
	// fields[0] is field 3 (state), so utime and stime are at 11, 12.
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(fields))
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", fields[11], fields[12])
	}
	return float64(utime+stime) / clockTick, nil
}

// PeakRSSMB returns a process's peak resident set size (VmHWM in
// /proc/<pid>/status) in MB (2^20 bytes).
func PeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusHWM(string(b))
}

func parseStatusHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: VmHWM %q: %w", f[0], err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}
