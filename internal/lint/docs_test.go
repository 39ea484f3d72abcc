package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestDocsNameLiveTargetsAndFiles: every `make <target>` the documents
// name is a target of the Makefile, and every bare file name they put
// in backticks (`DESIGN.md`, not a path or a command's argument) is a
// file at the top of the tree. Deleting a target or a committed file
// then fails here until its mentions are gone too.
func TestDocsNameLiveTargetsAndFiles(t *testing.T) {
	const root = "../.."
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	// In a code span or at the start of a code-block line, so that
	// prose ("and make all ...") is not a target.
	makeRef := regexp.MustCompile("(?m)(?:`|^\\s*)make ([a-z][a-z0-9-]*)")
	fileRef := regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_.-]*\\.(?:json|md|txt))`")
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range makeRef.FindAllSubmatch(text, -1) {
			if !targets[string(m[1])] {
				t.Errorf("%s names `make %s`, which the Makefile does not define", doc, m[1])
			}
		}
		for _, m := range fileRef.FindAllSubmatch(text, -1) {
			if _, err := os.Stat(filepath.Join(root, string(m[1]))); err != nil {
				t.Errorf("%s names the top-level file `%s`, which is not in the tree (name a run's output as a path or as the command's argument)", doc, m[1])
			}
		}
	}
}
