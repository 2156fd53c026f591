package querygraph

import (
	"fmt"
	"strings"

	"repro/internal/sqlparser"
)

// This file is the one place the graph's nodes become text.

// ASCII renders the query graph as the paper's Fig. 3–7 boxes: one
// parameterized class per tuple variable with its compartments, the join
// edges, and nested blocks indented below their parent.
func (g *Graph) ASCII() string {
	var b strings.Builder
	g.ascii(&b, "")
	return b.String()
}

func (g *Graph) ascii(b *strings.Builder, indent string) {
	for _, box := range g.Boxes {
		g.writeBox(b, indent, box)
	}
	for _, j := range g.Joins {
		kind := "non-FK"
		if j.FK {
			kind = "FK"
		}
		fmt.Fprintf(b, "%s%s --[%s]-- %s   (%s)\n", indent, j.From, j.Cond.SQL(), j.To, kind)
	}
	for _, n := range g.Nested {
		clause := "WHERE"
		if n.FromHaving {
			clause = "HAVING"
		}
		fmt.Fprintf(b, "%s%s: attached under %s via %s\n", indent, n.Label, clause, n.LinkText())
		for _, c := range n.Correlations {
			fmt.Fprintf(b, "%s  correlation: %s\n", indent, c.SQL())
		}
		n.Graph.ascii(b, indent+"    ")
	}
}

func (g *Graph) writeBox(b *strings.Builder, indent string, box *Box) {
	lines := []string{
		fmt.Sprintf("<<alias>> %s", box.Alias),
		fmt.Sprintf("<<FROM>> %s", box.Relation),
	}
	for _, sec := range g.sections(box) {
		lines = append(lines, fmt.Sprintf("<<%s>>", sec.tag))
		for _, it := range sec.items {
			lines = append(lines, "  "+it)
		}
	}

	width := 0
	for _, l := range lines {
		if len(l) > width {
			width = len(l)
		}
	}
	border := indent + "+" + strings.Repeat("-", width+2) + "+\n"
	b.WriteString(border)
	for _, l := range lines {
		fmt.Fprintf(b, "%s| %-*s |\n", indent, width, l)
	}
	b.WriteString(border)
}

// DOT renders the query graph in Graphviz format with record-shaped nodes
// per tuple variable and labeled join edges; nested blocks render as
// clusters.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph query {\n  rankdir=LR;\n  node [shape=record, fontname=\"Helvetica\"];\n")
	g.dotBody(&b, "", "")
	b.WriteString("}\n")
	return b.String()
}

func (g *Graph) dotBody(b *strings.Builder, prefix, indent string) {
	if indent == "" {
		indent = "  "
	}
	id := func(alias string) string { return dotID(prefix + alias) }
	for _, box := range g.Boxes {
		var parts []string
		parts = append(parts, fmt.Sprintf("\\<\\<FROM\\>\\> %s (%s)", box.Relation, box.Alias))
		for _, sec := range g.sections(box) {
			esc := make([]string, len(sec.items))
			for i, it := range sec.items {
				esc[i] = dotEscape(it)
			}
			parts = append(parts, fmt.Sprintf("\\<\\<%s\\>\\> %s", sec.tag, strings.Join(esc, "\\l")))
		}
		fmt.Fprintf(b, "%s%s [label=\"{%s}\"];\n", indent, id(box.Alias), strings.Join(parts, "|"))
	}
	for _, j := range g.Joins {
		style := ""
		if !j.FK {
			style = ", style=dashed"
		}
		fmt.Fprintf(b, "%s%s -> %s [label=\"%s\", dir=none%s];\n",
			indent, id(j.From), id(j.To), dotEscape(j.Cond.SQL()), style)
	}
	for _, n := range g.Nested {
		fmt.Fprintf(b, "%ssubgraph cluster_%s {\n%s  label=\"%s: %s\";\n",
			indent, dotID(prefix+n.Label), indent, n.Label, dotEscape(n.LinkText()))
		n.Graph.dotBody(b, prefix+n.Label+"_", indent+"  ")
		fmt.Fprintf(b, "%s}\n", indent)
		// Attachment edge from the parent's first box to the nested block's
		// first box, when both exist.
		if len(g.Boxes) > 0 && len(n.Graph.Boxes) > 0 {
			fmt.Fprintf(b, "%s%s -> %s [label=\"%s\", style=dotted];\n",
				indent, id(g.Boxes[0].Alias), dotID(prefix+n.Label+"_"+n.Graph.Boxes[0].Alias), dotEscape(n.Conn.String()))
		}
	}
}

// section is one non-empty compartment of a box, as the paper writes it.
type section struct {
	tag   string
	items []string
}

// sections renders a box's non-empty compartments in the paper's order.
func (g *Graph) sections(box *Box) []section {
	var out []section
	add := func(tag string, items []string) {
		if len(items) > 0 {
			out = append(out, section{tag, items})
		}
	}
	add("SELECT", texts(box.Select, g.selectEntry))
	add("WHERE", texts(box.Where, sqlparser.Expr.SQL))
	add("HAVING", texts(box.Having, sqlparser.Expr.SQL))
	add("GROUP BY", texts(box.GroupBy, g.qualify))
	add("ORDER BY", texts(box.OrderBy, g.orderNote))
	return out
}

// texts renders each node of a compartment.
func texts[T any](nodes []T, text func(T) string) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = text(n)
	}
	return out
}

// qualify renders a column reference in the paper's alias.relation.attr
// form when it names a box, and any other expression as written.
func (g *Graph) qualify(e sqlparser.Expr) string {
	if c, ok := e.(*sqlparser.ColumnRef); ok {
		if b := g.box(c.Table); b != nil {
			return b.Alias + "." + b.Relation + "." + c.Column
		}
	}
	return e.SQL()
}

// selectEntry renders a select item naming a box's column as
// "alias.relation.attribute: alias", and any other item as its expression.
func (g *Graph) selectEntry(it sqlparser.SelectItem) string {
	if c, ok := it.Expr.(*sqlparser.ColumnRef); ok && c.Column != "*" && g.box(c.Table) != nil {
		if it.Alias != "" {
			return g.qualify(c) + ": " + it.Alias
		}
		return g.qualify(c)
	}
	return it.Expr.SQL()
}

// orderNote renders an ORDER BY note: an expression over one box's columns
// without its direction, any other item as written.
func (g *Graph) orderNote(o sqlparser.OrderItem) string {
	if g.boxOf(o.Expr) != nil {
		return g.qualify(o.Expr)
	}
	return o.SQL()
}

// LinkText renders the conjunct that attaches a nested block with the
// subquery written as the block's label: "m.id NOT IN NQ1", "EXISTS NQ2",
// "m.year <= ALL NQ1", "NQ1 < 3".
func (n *Nested) LinkText() string {
	switch x := n.Link.(type) {
	case *sqlparser.InExpr:
		return x.Subject.SQL() + " " + n.Conn.String() + " " + n.Label
	case *sqlparser.QuantifiedExpr:
		return x.Subject.SQL() + " " + x.Op.String() + " " + n.Conn.String() + " " + n.Label
	case *sqlparser.BinaryExpr:
		if _, left := scalarSubquery(x); left {
			return n.Label + " " + x.Op.String() + " " + x.Right.SQL()
		}
		return x.Left.SQL() + " " + x.Op.String() + " " + n.Label
	}
	return n.Conn.String() + " " + n.Label
}

func dotID(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r == '_' || ('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z') || ('0' <= r && r <= '9') {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return "n_" + b.String()
}

func dotEscape(s string) string {
	r := strings.NewReplacer(`"`, `\"`, "<", "\\<", ">", "\\>", "|", "\\|", "{", "\\{", "}", "\\}")
	return r.Replace(s)
}
