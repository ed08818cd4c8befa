package engine

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseByteSize parses a human byte count for -max-heap-bytes style
// flags: a plain integer is bytes; KiB/MiB/GiB (or K/M/G) suffixes
// scale by powers of 1024. "0" means unlimited.
func ParseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	shift := 0
	for suffix, sh := range map[string]int{
		"KiB": 10, "K": 10, "MiB": 20, "M": 20, "GiB": 30, "G": 30,
	} {
		if strings.HasSuffix(t, suffix) {
			t, shift = strings.TrimSuffix(t, suffix), sh
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("engine: bad byte size %q (want e.g. 1073741824, 512MiB, 2GiB)", s)
	}
	if n>>(63-shift) != 0 {
		return 0, fmt.Errorf("engine: byte size %q overflows", s)
	}
	return n << shift, nil
}
