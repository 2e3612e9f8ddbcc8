package taupsm

// SetFigure8SQL makes MAX slicing compute its constant periods by
// executing the paper's Figure-8 SQL script instead of the native
// computation — the reference path the tests compare the native one
// against.
func (db *DB) SetFigure8SQL(on bool) { db.figure8SQL = on }
