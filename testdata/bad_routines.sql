-- A deliberately broken script exercising the static analyzer:
-- `taupsm vet testdata/bad_routines.sql` must report every class of
-- defect below and exit non-zero.

CREATE TABLE item (item_id CHAR(10), title VARCHAR(100), price FLOAT) AS VALIDTIME;
CREATE TABLE item_author (item_id CHAR(10), author_id CHAR(10));

-- TAU001 (undeclared variable) and TAU013 (missing RETURN).
CREATE FUNCTION f1 () RETURNS INTEGER
BEGIN
  SET x = 1;
END;

-- TAU002: cursor never declared.
CREATE PROCEDURE p1 ()
BEGIN
  OPEN missing_cursor;
END;

-- TAU003: no enclosing statement carries this label.
CREATE PROCEDURE p2 ()
BEGIN
  LEAVE nowhere;
END;

-- TAU004: unknown table.
SELECT title FROM no_such_table;

-- TAU006: callee does not exist.
CREATE PROCEDURE p3 ()
BEGIN
  CALL does_not_exist(1);
END;

-- TAU007: a function invoked as a procedure.
CREATE FUNCTION f2 () RETURNS INTEGER
BEGIN
  RETURN 1;
END;
CREATE PROCEDURE p4 ()
BEGIN
  CALL f2();
END;

-- TAU009: wrong argument count.
CREATE PROCEDURE p5 (IN a INTEGER)
BEGIN
  SET a = 0;
END;
CREATE PROCEDURE p6 ()
BEGIN
  CALL p5(1, 2);
END;

-- TAU010: value assigned but never read.
CREATE PROCEDURE p7 ()
BEGIN
  DECLARE unused INTEGER;
  SET unused = 3;
END;

-- TAU012: duplicate declaration in one compound.
CREATE PROCEDURE p8 ()
BEGIN
  DECLARE v INTEGER;
  DECLARE v INTEGER;
  SET v = 1;
END;

-- TAU020: temporal modifier over a snapshot-only table.
VALIDTIME SELECT item_id FROM item_author;

-- TAU040: arithmetic the engine rejects whenever it is evaluated.
SELECT begin_time + end_time FROM item;
SELECT title * 2 FROM item;

-- TAU041: comparison that is always UNKNOWN.
SELECT item_id FROM item WHERE title = 1;

-- TAU042: condition of a type that can never be TRUE.
SELECT item_id FROM item WHERE 'open';

-- TAU043: assignment silently coerced away from the declared type.
CREATE PROCEDURE p9 ()
BEGIN
  DECLARE n INTEGER;
  SET n = CURRENT_DATE;
END;

-- TAU044: RETURN value incompatible with the declared return type.
CREATE FUNCTION f3 () RETURNS INTEGER
BEGIN
  RETURN CURRENT_DATE;
END;

-- TAU045: argument incompatible with the parameter type.
CREATE FUNCTION shift_date (d DATE, n INTEGER) RETURNS DATE
BEGIN
  RETURN d + n;
END;
SELECT shift_date(DATE '2010-01-01', 'x') FROM item;

-- TAU046: INSERT arity does not match the target columns.
INSERT INTO item_author VALUES ('a1');

-- TAU047: INSERT/UPDATE value incompatible with the column type.
UPDATE item SET price = 'cheap' WHERE item_id = 'i1';
INSERT INTO item (item_id, title, price) VALUES ('i9', 't', 'expensive');

-- TAU050 and TAU051: a constant condition and the branch it kills.
CREATE PROCEDURE p10 ()
BEGIN
  DECLARE v INTEGER;
  IF 1 > 2 THEN
    SET v = 1;
  END IF;
END;

-- TAU052: statically-empty applicability period.
VALIDTIME (DATE '2011-01-01', DATE '2010-01-01') SELECT title FROM item;

-- TAU053: constant division by zero.
SELECT price / (3 - 3) FROM item;

-- TAU048: a target column written twice.
CREATE PROCEDURE p11 ()
BEGIN
  UPDATE item SET price = 1, price = 2 WHERE item_id = 'i1';
END;
