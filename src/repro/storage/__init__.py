"""In-memory storage: column/row tables, indexes, catalog, buffers."""
