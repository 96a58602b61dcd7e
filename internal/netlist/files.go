package netlist

import (
	"fmt"
	"io"
	"os"
	"strings"

	"hgpart/internal/hypergraph"
)

// formatOf names the format of a netlist file by its extension, the one rule
// every command applies: .hgr is hMETIS ("hgr"), .patoh and .u are PaToH
// ("patoh"), and anything else is an ISPD98 .netD/.net netlist ("netd").
func formatOf(path string) string {
	switch {
	case strings.HasSuffix(path, ".hgr"):
		return "hgr"
	case strings.HasSuffix(path, ".patoh"), strings.HasSuffix(path, ".u"):
		return "patoh"
	}
	return "netd"
}

// Parse reads one netlist in format "hgr", "netd" or "patoh" from r. are
// supplies ISPD98 areas for "netd" and may be nil (unit areas); the other
// formats carry their own weights and ignore it.
func Parse(format string, r, are io.Reader, name string) (*hypergraph.Hypergraph, error) {
	switch format {
	case "hgr":
		return ParseHGR(r, name)
	case "netd":
		return ParseNetD(r, are, name)
	case "patoh":
		return ParsePaToH(r, name)
	}
	return nil, fmt.Errorf("unknown input format %q", format)
}

// Files names a netlist on disk: a Bookshelf Nodes/Nets pair, or the file
// Path in Format (formatOf(Path) when empty) with Are supplying ISPD98 areas.
type Files struct {
	Path, Are, Format string
	Nodes, Nets       string
}

// ReadFiles reads the netlist f names. The Bookshelf pair is read when both
// of its files are set, and only it marks terminal nodes: terminal is nil for
// the other formats. Are is opened only for an ISPD98 netlist.
func ReadFiles(f Files) (h *hypergraph.Hypergraph, terminal []bool, err error) {
	if f.Nodes != "" && f.Nets != "" {
		nodes, err := os.Open(f.Nodes)
		if err != nil {
			return nil, nil, err
		}
		defer nodes.Close()
		nets, err := os.Open(f.Nets)
		if err != nil {
			return nil, nil, err
		}
		defer nets.Close()
		d, err := ParseBookshelf(nodes, nets, f.Nodes)
		if err != nil {
			return nil, nil, err
		}
		return d.H, d.Terminal, nil
	}
	in, err := os.Open(f.Path)
	if err != nil {
		return nil, nil, err
	}
	defer in.Close()
	format := f.Format
	if format == "" {
		format = formatOf(f.Path)
	}
	var are io.Reader
	if f.Are != "" && format == "netd" {
		af, err := os.Open(f.Are)
		if err != nil {
			return nil, nil, err
		}
		defer af.Close()
		are = af
	}
	h, err = Parse(format, in, are, f.Path)
	return h, nil, err
}

// WriteFiles writes h in format "hgr", "netd", "patoh" or "bookshelf" to
// base plus the format's extensions: .hgr, .netD and .are, .patoh, or .nodes
// and .nets. terminal marks Bookshelf terminal nodes, as ReadFiles returns
// them (nil for none); the other formats carry no terminals.
func WriteFiles(h *hypergraph.Hypergraph, terminal []bool, format, base string) error {
	switch format {
	case "hgr":
		return create(func(w []io.Writer) error { return WriteHGR(w[0], h) }, base+".hgr")
	case "netd":
		return create(func(w []io.Writer) error {
			if err := WriteNetD(w[0], h); err != nil {
				return err
			}
			return WriteAre(w[1], h)
		}, base+".netD", base+".are")
	case "patoh":
		return create(func(w []io.Writer) error { return WritePaToH(w[0], h) }, base+".patoh")
	case "bookshelf":
		return create(func(w []io.Writer) error { return WriteBookshelf(w[0], w[1], h, terminal) }, base+".nodes", base+".nets")
	}
	return fmt.Errorf("unknown output format %q", format)
}

// create creates paths, hands them to write in order and closes them,
// returning the first error.
func create(write func([]io.Writer) error, paths ...string) (err error) {
	ws := make([]io.Writer, len(paths))
	for i, path := range paths {
		f, ferr := os.Create(path)
		if ferr != nil {
			return ferr
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		ws[i] = f
	}
	return write(ws)
}
