package claim

import (
	"os"
	"strconv"
	"strings"
	"sync"
)

// fallbackL2 is assumed when sysfs has no cache topology (non-Linux,
// containers with masked sysfs): 256 KiB, the common per-core floor.
const fallbackL2 = 256 << 10

var l2Once struct {
	sync.Once
	bytes int
}

// L2CacheBytes returns the per-core L2 data-cache size, probed once from
// /sys/devices/system/cpu/cpu0/cache and memoized; fallbackL2 when the
// probe finds nothing. No solver reads it: only the benchmark's
// environment stamp does.
func L2CacheBytes() int {
	l2Once.Do(func() {
		l2Once.bytes = probeL2("/sys/devices/system/cpu/cpu0/cache")
	})
	return l2Once.bytes
}

// probeL2 scans one CPU's cache index directories for a level-2 unified
// or data cache and parses its size ("512K", "1024K", "1M", plain bytes).
func probeL2(dir string) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fallbackL2
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "index") {
			continue
		}
		base := dir + "/" + e.Name()
		if readTrimmed(base+"/level") != "2" {
			continue
		}
		switch readTrimmed(base + "/type") {
		case "Unified", "Data":
		default:
			continue
		}
		if n := parseCacheSize(readTrimmed(base + "/size")); n > 0 {
			return n
		}
	}
	return fallbackL2
}

func readTrimmed(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseCacheSize parses sysfs cache sizes: "512K", "2M", "1G" or a plain
// byte count. Returns 0 on anything unparseable.
func parseCacheSize(s string) int {
	if s == "" {
		return 0
	}
	mult := 1
	switch s[len(s)-1] {
	case 'K', 'k':
		mult, s = 1<<10, s[:len(s)-1]
	case 'M', 'm':
		mult, s = 1<<20, s[:len(s)-1]
	case 'G', 'g':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0
	}
	return n * mult
}
