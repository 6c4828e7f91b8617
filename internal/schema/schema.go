// Package schema defines the engine's catalog: tables, columns, indexes,
// and views, plus the introspection snapshots PQS queries to learn the
// database state dynamically (the paper queries sqlite_master /
// information_schema rather than tracking state itself).
package schema

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/sqlast"
	"repro/internal/sqlval"
)

// Column describes one table column.
type Column struct {
	Name     string
	TypeName string // declared type, may be empty in the SQLite dialect
	Affinity sqlval.Affinity
	Unsigned bool // MySQL
	NotNull  bool
	Unique   bool // column-level UNIQUE constraint
	PK       bool // member of the primary key
	Collate  sqlval.Collation
	Default  sqlast.Expr
	Check    sqlast.Expr
}

// Table describes one table.
type Table struct {
	Name         string
	Columns      []Column
	WithoutRowid bool   // SQLite: PK is the row identity, no rowid
	Engine       string // MySQL storage engine ("" = default)
	Parent       string // Postgres inheritance parent
	Children     []string
	IsView       bool // views appear as tables with a definition
	ViewDef      *sqlast.Select
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i := range t.Columns {
		if strings.EqualFold(t.Columns[i].Name, name) {
			return i
		}
	}
	return -1
}

// PKColumns returns the positions of primary-key columns in declaration
// order.
func (t *Table) PKColumns() []int {
	var out []int
	for i := range t.Columns {
		if t.Columns[i].PK {
			out = append(out, i)
		}
	}
	return out
}

// IndexPart is one key part of an index.
type IndexPart struct {
	X       sqlast.Expr
	Collate sqlval.Collation
	HasColl bool // collation explicitly given on the part
	Desc    bool
}

// Index describes one secondary index.
type Index struct {
	Name    string
	Table   string
	Unique  bool
	Parts   []IndexPart
	Where   sqlast.Expr // partial-index predicate, nil if full
	Implied bool        // created implicitly for a UNIQUE/PK constraint

	// BuildSeq records the statement sequence number at which the index
	// was (re)built; maintenance bugs key off staleness.
	BuildSeq int64
	// BuildCaseSensitiveLike snapshots the case_sensitive_like pragma at
	// build time (Listing 9 reproduction).
	BuildCaseSensitiveLike bool
}

// LeadingColumn returns the bare column name of the index's first key
// part, when it is a plain column reference (the shape the planner's
// point-lookup and range-scan paths require). Double-quoted MaybeString
// parts and expression parts report ok=false.
func (ix *Index) LeadingColumn() (string, bool) {
	if len(ix.Parts) == 0 {
		return "", false
	}
	cr, ok := ix.Parts[0].X.(*sqlast.ColumnRef)
	if !ok || cr.MaybeString {
		return "", false
	}
	return cr.Column, true
}

// Catalog is the database schema. It is not goroutine-safe; the engine
// serializes access.
type Catalog struct {
	tables  map[string]*Table
	indexes map[string]*Index
	order   []string // table creation order
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables:  map[string]*Table{},
		indexes: map[string]*Index{},
	}
}

func key(name string) string { return strings.ToLower(name) }

// Reset empties the catalog in place, keeping its map allocations (engine
// lifecycle pooling: a reset database starts from a pristine catalog
// without reallocating it).
func (c *Catalog) Reset() {
	clear(c.tables)
	clear(c.indexes)
	c.order = c.order[:0]
}

// Table resolves a table or view by name, case-insensitively.
func (c *Catalog) Table(name string) (*Table, bool) {
	t, ok := c.tables[key(name)]
	return t, ok
}

// AddTable registers a table. It fails if the name is taken.
func (c *Catalog) AddTable(t *Table) error {
	k := key(t.Name)
	if _, dup := c.tables[k]; dup {
		return fmt.Errorf("table %s already exists", t.Name)
	}
	c.tables[k] = t
	c.order = append(c.order, k)
	return nil
}

// DropTable removes a table and its indexes.
func (c *Catalog) DropTable(name string) error {
	k := key(name)
	t, ok := c.tables[k]
	if !ok {
		return fmt.Errorf("no such table: %s", name)
	}
	// Detach from inheritance parent.
	if t.Parent != "" {
		if p, ok := c.Table(t.Parent); ok {
			for i, ch := range p.Children {
				if key(ch) == k {
					p.Children = append(p.Children[:i], p.Children[i+1:]...)
					break
				}
			}
		}
	}
	if len(t.Children) > 0 {
		return fmt.Errorf("cannot drop table %s because other objects depend on it", name)
	}
	delete(c.tables, k)
	for i, n := range c.order {
		if n == k {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	for n, ix := range c.indexes {
		if key(ix.Table) == k {
			delete(c.indexes, n)
		}
	}
	return nil
}

// RenameTable renames a table and rewrites its indexes' table references.
func (c *Catalog) RenameTable(old, new string) error {
	ko, kn := key(old), key(new)
	t, ok := c.tables[ko]
	if !ok {
		return fmt.Errorf("no such table: %s", old)
	}
	if _, dup := c.tables[kn]; dup {
		return fmt.Errorf("table %s already exists", new)
	}
	delete(c.tables, ko)
	t.Name = new
	c.tables[kn] = t
	for i, n := range c.order {
		if n == ko {
			c.order[i] = kn
		}
	}
	for _, ix := range c.indexes {
		if key(ix.Table) == ko {
			ix.Table = new
		}
	}
	return nil
}

// TableNames lists tables (not views) in creation order.
func (c *Catalog) TableNames() []string {
	var out []string
	for _, k := range c.order {
		if t := c.tables[k]; !t.IsView {
			out = append(out, t.Name)
		}
	}
	return out
}

// ViewNames lists views in creation order.
func (c *Catalog) ViewNames() []string {
	var out []string
	for _, k := range c.order {
		if t := c.tables[k]; t.IsView {
			out = append(out, t.Name)
		}
	}
	return out
}

// Index resolves an index by name.
func (c *Catalog) Index(name string) (*Index, bool) {
	ix, ok := c.indexes[key(name)]
	return ix, ok
}

// AddIndex registers an index.
func (c *Catalog) AddIndex(ix *Index) error {
	k := key(ix.Name)
	if _, dup := c.indexes[k]; dup {
		return fmt.Errorf("index %s already exists", ix.Name)
	}
	if _, ok := c.Table(ix.Table); !ok {
		return fmt.Errorf("no such table: %s", ix.Table)
	}
	c.indexes[k] = ix
	return nil
}

// DropIndex removes an index.
func (c *Catalog) DropIndex(name string) error {
	k := key(name)
	if _, ok := c.indexes[k]; !ok {
		return fmt.Errorf("no such index: %s", name)
	}
	delete(c.indexes, k)
	return nil
}

// IndexesOn returns the indexes of a table, sorted by name. A table with
// no index gets nil, without allocating: the planner asks once per SELECT.
func (c *Catalog) IndexesOn(table string) []*Index {
	kt := key(table)
	var out []*Index
	for _, ix := range c.indexes {
		if key(ix.Table) == kt {
			out = append(out, ix)
		}
	}
	slices.SortFunc(out, func(a, b *Index) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// IndexNames lists all indexes sorted by name.
func (c *Catalog) IndexNames() []string {
	var out []string
	for _, ix := range c.indexes {
		out = append(out, ix.Name)
	}
	sort.Strings(out)
	return out
}

// InheritanceLeaves returns t plus all (transitive) child tables, in
// declaration order — the scan set for a Postgres inherited table.
func (c *Catalog) InheritanceLeaves(t *Table) []*Table {
	out := []*Table{t}
	for _, ch := range t.Children {
		if child, ok := c.Table(ch); ok {
			out = append(out, c.InheritanceLeaves(child)...)
		}
	}
	return out
}

// ColumnInfo is the introspection record PQS reads (the analogue of a row
// of PRAGMA table_info / information_schema.columns).
type ColumnInfo struct {
	Name     string
	TypeName string
	Affinity string
	NotNull  bool
	PK       bool
	Unsigned bool
	Collate  string
}

// TableInfo is the introspection record for one table.
type TableInfo struct {
	Name         string
	Columns      []ColumnInfo
	WithoutRowid bool
	Engine       string
	Parent       string
	IsView       bool
}

// Describe produces the introspection snapshot for a table.
func Describe(t *Table) TableInfo {
	ti := TableInfo{
		Name:         t.Name,
		WithoutRowid: t.WithoutRowid,
		Engine:       t.Engine,
		Parent:       t.Parent,
		IsView:       t.IsView,
		Columns:      make([]ColumnInfo, 0, len(t.Columns)),
	}
	for _, col := range t.Columns {
		ti.Columns = append(ti.Columns, ColumnInfo{
			Name:     col.Name,
			TypeName: col.TypeName,
			Affinity: col.Affinity.String(),
			NotNull:  col.NotNull,
			PK:       col.PK,
			Unsigned: col.Unsigned,
			Collate:  col.Collate.String(),
		})
	}
	return ti
}
