package selfserv_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestHotPathPackagesDoNotImportEncodingXML: XML is where the paper
// specifies documents — statecharts, routing tables, SOAP/WSDL/UDDI, all
// deploy-time — and nowhere on the path of a notification hop. The wire
// and the journal each had an XML or JSON encoder once; this keeps one
// from coming back through an import. Import clauses only, read off the
// source files: the non-test files of each package (message's tests keep
// encoding/xml as the oracle its record is checked against).
func TestHotPathPackagesDoNotImportEncodingXML(t *testing.T) {
	for _, pkg := range []string{"engine", "message", "record", "transport", "journal", "expr", "placement", "service"} {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no Go files (%v)", pkg, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, src, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "encoding/xml" {
					t.Errorf("%s imports encoding/xml: %s is on the notification-hop path", file, pkg)
				}
			}
		}
	}
}
