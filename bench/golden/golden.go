// Package golden holds the committed output digests of the benchmark's
// workloads: the hex SHA-256 of one round's output, one file per workload.
// The suite-default digest is that of the stdout of `wnbench -exp all` with an empty -out;
// intermittent-paper's holds at the default seed only.
package golden

import (
	"embed"
	"strings"
)

//go:embed *.sha256
var files embed.FS

// Digest returns the committed digest of the named workload's output, or ""
// when none is committed.
func Digest(workload string) string {
	b, err := files.ReadFile(workload + ".sha256")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}
