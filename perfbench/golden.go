package main

import (
	"bufio"
	"embed"
	"fmt"
	"strconv"
	"strings"
)

// golden/<workload>.txt records, per seed, every trial's result digest:
// the simulated outputs a change that only speeds up the simulator must
// leave identical. Regenerate after an intended behaviour change with
// --record (README.md).
//
//go:embed golden/*.txt
var goldenFiles embed.FS

const goldenHeader = "# per-trial result digests: seed index digest label"

// loadGolden returns the recorded digests by seed, in trial order.
func loadGolden(workload string) (map[uint64][]uint64, error) {
	out := map[uint64][]uint64{}
	data, err := goldenFiles.ReadFile("golden/" + workload + ".txt")
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) < 3 {
			return nil, fmt.Errorf("golden/%s.txt:%d: want seed index digest", workload, line)
		}
		seed, err1 := strconv.ParseUint(f[0], 10, 64)
		idx, err2 := strconv.Atoi(f[1])
		d, err3 := strconv.ParseUint(f[2], 16, 64)
		if err1 != nil || err2 != nil || err3 != nil || idx != len(out[seed]) {
			return nil, fmt.Errorf("golden/%s.txt:%d: malformed entry", workload, line)
		}
		out[seed] = append(out[seed], d)
	}
	return out, sc.Err()
}
