package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"connlab/internal/campaign"
)

// entry is the deterministic summary of one op: what the reference
// records and every run must reproduce exactly.
type entry struct {
	// Canonical is the hex sha256 of Report.Canonical(): every device's
	// seed, verdict and detail, and every count (Run-based workloads).
	Canonical string `json:"canonical,omitempty"`
	// Outcome and Detail are the verdict of a single trial
	// (attack-oneshot).
	Outcome string `json:"outcome,omitempty"`
	Detail  string `json:"detail,omitempty"`
	// Instr is the emulated parse instructions summed over the trials.
	Instr uint64 `json:"instr,omitempty"`
	// SpecViolations counts devices whose verdict lies outside the
	// spec's predicates (matrix-fleet only).
	SpecViolations int `json:"spec_violations,omitempty"`
	// Transcript is ScaleReport.Transcript (pineapple-pop only).
	Transcript string `json:"transcript,omitempty"`
}

// reference is one workload's recorded pool of entries.
type reference struct {
	Workload string  `json:"workload"`
	Entries  []entry `json:"entries"`
}

//go:embed ref/*.json
var refFS embed.FS

// loadReference returns the recorded reference for a workload.
func loadReference(name string, pool int) (*reference, error) {
	b, err := refFS.ReadFile("ref/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("no reference for %s: %w", name, err)
	}
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", name, err)
	}
	if ref.Workload != name || len(ref.Entries) != pool {
		return nil, fmt.Errorf("reference %s: holds %q with %d entries, want %d", name, ref.Workload, len(ref.Entries), pool)
	}
	return &ref, nil
}

// recordReference runs every pool entry of a workload once and writes
// the reference file.
func recordReference(w workload, name, path string) error {
	if err := w.prepare(); err != nil {
		return err
	}
	ref := reference{Workload: name}
	for j := 0; j < w.poolSize(); j++ {
		r := w.op(j)
		if r.err != nil {
			return fmt.Errorf("pool entry %d: %w", j, r.err)
		}
		ref.Entries = append(ref.Entries, r.ref)
	}
	// One entry per line keeps the file diffable and compact.
	b := fmt.Appendf(nil, "{\"workload\": %q, \"entries\": [\n", name)
	for i, e := range ref.Entries {
		line, err := json.Marshal(e)
		if err != nil {
			return err
		}
		b = append(b, line...)
		if i < len(ref.Entries)-1 {
			b = append(b, ',')
		}
		b = append(b, '\n')
	}
	b = append(b, "]}\n"...)
	return os.WriteFile(path, b, 0o644)
}

// canonicalDigest is the hex sha256 of a report's canonical rendering.
func canonicalDigest(rep *campaign.Report) string {
	sum := sha256.Sum256([]byte(rep.Canonical()))
	return hex.EncodeToString(sum[:])
}
