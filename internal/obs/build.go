package obs

import (
	"runtime/debug"
	"sync"
)

// Build identifies the running binary for /statusz: the Go toolchain that
// built it and, for binaries built from a VCS checkout, the commit and
// whether the working tree had uncommitted changes.
type Build struct {
	GoVersion string `json:"go_version"`
	Revision  string `json:"vcs_revision,omitempty"`
	Modified  bool   `json:"vcs_modified,omitempty"`
}

// ReadBuild returns the binary's Build, read once from
// runtime/debug.ReadBuildInfo. Test binaries and builds without VCS
// stamping report only the Go version.
func ReadBuild() Build { return readBuild() }

var readBuild = sync.OnceValue(func() Build {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return Build{}
	}
	b := Build{GoVersion: info.GoVersion}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
		case "vcs.modified":
			b.Modified = s.Value == "true"
		}
	}
	return b
})
