package lint

import "strconv"

// Unsafe flags every import of package unsafe outside internal/ndn. The
// decoder there renders a received name's URI into its packet record and
// views it as a string (unsafe.String), which is sound only under that
// package's rules: the bytes are written before the packet is visible and
// never rewritten while it is. A Data record is never reused; an Interest
// decoded into a transmission's Room lives until the transmission ends, and
// a table that keeps part of it copies what it keeps (docs/CONTRACTS.md §3).
// Nowhere else in the tree is there such an argument to make, so nowhere
// else may unsafe appear.
var Unsafe = &Analyzer{
	Name: "unsafe",
	Doc: "Package unsafe is imported by internal/ndn alone, whose decoded-name views " +
		"live as long as their record — a Data's for good, a heard Interest's until its " +
		"transmission ends, copied by any table that keeps one; everywhere else it is banned.",
	Run: runUnsafe,
}

func runUnsafe(pass *Pass) error {
	if pass.Pkg.Path() == ndnPath {
		return nil
	}
	for _, file := range pass.Files {
		for _, spec := range file.Imports {
			if path, err := strconv.Unquote(spec.Path.Value); err == nil && path == "unsafe" {
				pass.Reportf(spec.Pos(), "package unsafe outside internal/ndn; only the decoder's name views, which live as long as their record, may use it")
			}
		}
	}
	return nil
}
