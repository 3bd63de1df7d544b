package obs

import (
	"encoding/json"
	"runtime"
	"runtime/debug"
	"sync"
)

// RunInfo is the provenance manifest attached to every externally
// visible result (samuraid job results, samuraivv reports, the
// bench_trajectory.json file): enough to re-derive the run
// bit-exactly. The build half identifies the code and the machine;
// Seed and SpecHash identify the work.
//
// RunInfo is deliberately machine-dependent (CPU count, VCS revision)
// and therefore must never flow into a seeded result or the jobd WAL —
// the detflow lint enforces that statically. Serializers whose output
// bytes are a pinned invariant (samuraivv) splice the pre-marshalled
// SpliceJSON bytes in after marshalling their deterministic body.
type RunInfo struct {
	GoVersion string `json:"go_version"`
	OS        string `json:"goos"`
	Arch      string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// Revision is the module VCS revision baked into the binary
	// ("unknown" for non-VCS builds, e.g. go test binaries).
	Revision string `json:"revision"`
	// Modified reports uncommitted changes at build time.
	Modified bool `json:"modified,omitempty"`
	// LintWaivers is the rule set with active //lint:ignore waivers in
	// the tree this binary was built from (see waivers.go): part of
	// provenance because a waiver can exempt code from the determinism
	// guarantees the rest of this manifest promises.
	LintWaivers []string `json:"lint_waivers"`
	// Seed and SpecHash identify the specific run; zero when the
	// manifest describes the process rather than one job.
	Seed     uint64 `json:"seed,omitempty"`
	SpecHash string `json:"spec_hash,omitempty"`
}

var (
	buildOnce sync.Once
	buildInfo RunInfo
)

// build returns the process-constant half of the manifest, computed
// once.
func build() RunInfo {
	buildOnce.Do(func() {
		buildInfo = RunInfo{
			GoVersion:   runtime.Version(),
			OS:          runtime.GOOS,
			Arch:        runtime.GOARCH,
			NumCPU:      runtime.NumCPU(),
			Revision:    "unknown",
			LintWaivers: LintWaivers(),
		}
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				switch s.Key {
				case "vcs.revision":
					buildInfo.Revision = s.Value
				case "vcs.modified":
					buildInfo.Modified = s.Value == "true"
				}
			}
		}
	})
	return buildInfo
}

// Info returns the provenance manifest for a run identified by seed
// and spec hash (pass 0, "" for process-level provenance).
func Info(seed uint64, specHash string) RunInfo {
	ri := build()
	ri.Seed = seed
	ri.SpecHash = specHash
	return ri
}

// SpliceJSON marshals the manifest and splices it into an
// already-marshalled JSON object as a leading "run_info" member. The
// body bytes stay byte-for-byte intact after the inserted member, so a
// serializer whose output is pinned bit-identical (samuraivv) keeps
// its deterministic body while still carrying provenance; the
// marshalling of the machine-dependent half happens here, outside the
// pinned serializer package. doc must be a JSON object ({...}); any
// other shape is returned unchanged.
func SpliceJSON(doc []byte, ri RunInfo) []byte {
	enc, err := json.Marshal(ri)
	if err != nil {
		return doc // cannot happen: RunInfo has no unmarshalable fields
	}
	i := 0
	for i < len(doc) && (doc[i] == ' ' || doc[i] == '\t' || doc[i] == '\n' || doc[i] == '\r') {
		i++
	}
	if i >= len(doc) || doc[i] != '{' {
		return doc
	}
	out := make([]byte, 0, len(doc)+len(enc)+16)
	out = append(out, doc[:i+1]...)
	out = append(out, []byte("\n  \"run_info\": ")...)
	out = append(out, enc...)
	// Empty object {}: no comma needed before the closing brace.
	j := i + 1
	for j < len(doc) && (doc[j] == ' ' || doc[j] == '\t' || doc[j] == '\n' || doc[j] == '\r') {
		j++
	}
	if j < len(doc) && doc[j] != '}' {
		out = append(out, ',')
	}
	out = append(out, doc[i+1:]...)
	return out
}
