//! Mapping byte offsets back to file / line / column positions.

use crate::span::Span;

/// A named source buffer with a precomputed line-start table, used by the
/// renderer to turn byte spans into `file:line:col` positions and to slice
/// out the source lines a diagnostic annotates.
#[derive(Debug, Clone)]
pub struct SourceMap {
    name: String,
    src: String,
    /// Byte offset of the start of each line (always begins with 0).
    line_starts: Vec<usize>,
}

impl SourceMap {
    /// Wraps `src` (e.g. the text of one Ruby file) under a display `name`.
    pub fn new(name: impl Into<String>, src: impl Into<String>) -> Self {
        let src = src.into();
        let mut line_starts = vec![0];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        SourceMap { name: name.into(), src, line_starts }
    }

    /// The display name (shown in the `-->` header line).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The full source text.
    pub fn source(&self) -> &str {
        &self.src
    }

    /// 1-based line number containing byte `offset`.
    pub fn line_of(&self, offset: usize) -> u32 {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i as u32 + 1,
            Err(i) => i as u32,
        }
    }

    /// 1-based column of byte `offset` within its line (counted in bytes —
    /// the source subset is ASCII).
    pub fn column_of(&self, offset: usize) -> u32 {
        let line = self.line_of(offset) as usize;
        let start = self.line_starts[line - 1];
        (offset - start) as u32 + 1
    }

    /// The text of 1-based `line`, without its trailing newline.
    pub fn line_text(&self, line: u32) -> Option<&str> {
        let i = line.checked_sub(1)? as usize;
        let start = *self.line_starts.get(i)?;
        let end = self.line_starts.get(i + 1).map(|e| e - 1).unwrap_or(self.src.len());
        self.src.get(start..end.max(start))
    }

    /// `(line, col)` of the start of `span`, both 1-based.
    pub fn position(&self, span: Span) -> (u32, u32) {
        let off = span.start.min(self.src.len());
        (self.line_of(off), self.column_of(off))
    }
}

/// A collection of [`SourceMap`]s indexed by the `file` id carried in every
/// [`Span`], so multi-file programs (e.g. an app's source plus its test
/// suite) can resolve any span back to the right named buffer.
///
/// File ids are assigned densely in insertion order, matching the ids a
/// multi-file front end stamps into its spans.
#[derive(Debug, Clone, Default)]
pub struct SourceSet {
    files: Vec<SourceMap>,
}

impl SourceSet {
    /// An empty set.
    pub fn new() -> Self {
        SourceSet::default()
    }

    /// Adds a named source buffer, returning the file id spans into it must
    /// carry.
    pub fn add(&mut self, name: impl Into<String>, src: impl Into<String>) -> u32 {
        self.files.push(SourceMap::new(name, src));
        (self.files.len() - 1) as u32
    }

    /// The map for `file`, if one was added.
    pub fn get(&self, file: u32) -> Option<&SourceMap> {
        self.files.get(file as usize)
    }

    /// The map `span` points into, if its file id is known.
    pub fn map_for(&self, span: Span) -> Option<&SourceMap> {
        self.get(span.file)
    }

    /// Number of files in the set.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when no files were added.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Iterates over the maps in file-id order.
    pub fn iter(&self) -> impl Iterator<Item = &SourceMap> {
        self.files.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_column_lookup() {
        let sm = SourceMap::new("t.rb", "abc\ndef\n\nxyz");
        assert_eq!(sm.line_of(0), 1);
        assert_eq!(sm.line_of(3), 1); // the newline byte belongs to line 1
        assert_eq!(sm.line_of(4), 2);
        assert_eq!(sm.column_of(5), 2);
        assert_eq!(sm.line_text(2), Some("def"));
        assert_eq!(sm.line_text(3), Some(""));
        assert_eq!(sm.line_text(4), Some("xyz"));
        assert_eq!(sm.line_text(5), None);
    }

    #[test]
    fn position_clamps_to_buffer() {
        let sm = SourceMap::new("t.rb", "ab");
        assert_eq!(sm.position(Span::new(100, 101, 9)), (1, 3));
    }

    #[test]
    fn source_set_resolves_spans_by_file_id() {
        let mut set = SourceSet::new();
        let app = set.add("app.rb", "def m()\nend\n");
        let tests = set.add("app_test.rb", "m()\n");
        assert_eq!((app, tests), (0, 1));
        assert_eq!(set.len(), 2);
        let in_tests = Span::in_file(tests, 0, 3, 1);
        assert_eq!(set.map_for(in_tests).unwrap().name(), "app_test.rb");
        assert_eq!(set.map_for(Span::new(0, 3, 1)).unwrap().name(), "app.rb");
        assert!(set.map_for(Span::in_file(9, 0, 1, 1)).is_none());
    }
}
