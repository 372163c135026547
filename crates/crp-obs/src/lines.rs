//! The one line reader every line-based wire decoder in the workspace
//! runs on.
//!
//! Every line ends in `\n`.  The reader holds the structural rules once:
//! an exact header line, `label` then fields separated by single spaces
//! (never empty), counted sections each with a maximum the caller names,
//! byte-exact sections of a given length, and an `end` line (or, in a
//! body whose closing line the caller splits off, the last line) with
//! nothing after it.  Integers are canonical decimal ([`parse_int`]) and bit
//! patterns [`crate::hex64`], so a decoder that states only its labels and
//! field types accepts exactly the bytes its encoder writes.  Every
//! failure is one [`LineError`] naming its line, which each decoder maps
//! into its own error type.  Tokenizing is one pass over the bytes with
//! no allocation per field: a scenario blob carries 2^14 fields.

use crate::hex::parse_hex64;

/// A decode failure: the 1-based line it names and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    /// The 1-based line number.
    pub line: usize,
    /// What was wrong with it.
    pub what: String,
}

impl std::fmt::Display for LineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for LineError {}

/// Strictly decodes a canonical decimal integer in range for `T`: an
/// optional `-`, then digits with no leading zero.  `+5`, `05` and `-0`
/// are `None`.
pub fn parse_int<T: TryFrom<u64> + TryFrom<i64>>(token: &str) -> Option<T> {
    let (negative, digits) = match token.strip_prefix('-') {
        Some(digits) => (true, digits.as_bytes()),
        None => (false, token.as_bytes()),
    };
    if digits.is_empty() || (digits[0] == b'0' && (digits.len() > 1 || negative)) {
        return None;
    }
    let magnitude = digits.iter().try_fold(0u64, |value, &byte| {
        let digit = byte.is_ascii_digit().then(|| u64::from(byte - b'0'))?;
        value.checked_mul(10)?.checked_add(digit)
    })?;
    if negative {
        T::try_from(0i64.checked_sub_unsigned(magnitude)?).ok()
    } else {
        T::try_from(magnitude).ok()
    }
}

/// The fields of one line, or of a blob the line references.
#[derive(Debug)]
pub struct Fields<'a> {
    /// The unread fields, `None` once the last one is taken.
    rest: Option<&'a str>,
    line: usize,
}

impl<'a> Fields<'a> {
    fn new(text: &'a str, line: usize) -> Self {
        let rest = (!text.is_empty()).then_some(text);
        Self { rest, line }
    }

    /// An error naming this line.
    pub fn error(&self, what: impl Into<String>) -> LineError {
        LineError {
            line: self.line,
            what: what.into(),
        }
    }

    /// The next field as written: empty after a doubled or trailing space.
    fn next_raw(&mut self) -> Option<&'a str> {
        let rest = self.rest?;
        Some(match rest.bytes().position(|byte| byte == b' ') {
            Some(space) => {
                self.rest = Some(&rest[space + 1..]);
                &rest[..space]
            }
            None => {
                self.rest = None;
                rest
            }
        })
    }

    /// The next field, or `None` when the line has no more; an empty
    /// field (a doubled or trailing space) is an error.
    pub fn opt(&mut self) -> Result<Option<&'a str>, LineError> {
        match self.next_raw() {
            Some("") => Err(self.error("empty field (doubled or trailing space)")),
            field => Ok(field),
        }
    }

    /// The next field, which must be present.
    pub fn token(&mut self) -> Result<&'a str, LineError> {
        self.opt()?.ok_or_else(|| self.error("missing field"))
    }

    /// The next field, parsed by `parse`; a rejected one is not `what`.
    pub fn parse<T>(
        &mut self,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, LineError> {
        let token = self.token()?;
        parse(token).ok_or_else(|| self.error(format!("{token:?} is not {what}")))
    }

    /// The next field as a canonical decimal integer ([`parse_int`]).
    pub fn int<T: TryFrom<u64> + TryFrom<i64>>(&mut self) -> Result<T, LineError> {
        self.parse(std::any::type_name::<T>(), parse_int)
    }

    /// The next field as a count of at most `max`.
    pub fn count(&mut self, max: usize) -> Result<usize, LineError> {
        self.parse("a count within its bound", |token| {
            parse_int(token).filter(|&count| count <= max)
        })
    }

    /// The next field as a [`crate::hex64`] bit pattern.
    pub fn hex64(&mut self) -> Result<u64, LineError> {
        self.parse("16 lowercase hex digits", parse_hex64)
    }

    /// Requires the next field to be exactly `word`.
    pub fn keyword(&mut self, word: &str) -> Result<(), LineError> {
        self.parse(word, |token| (token == word).then_some(()))
    }

    /// Every remaining field parsed by `parse`, at most `max` of them.
    /// `parse` must reject the empty string.
    pub fn list<T>(
        &mut self,
        max: usize,
        what: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Vec<T>, LineError> {
        let mut items = Vec::new();
        while let Some(token) = self.next_raw() {
            if items.len() == max {
                return Err(self.error(format!("more than {max} fields")));
            }
            items.push(parse(token).ok_or_else(|| self.error(format!("{token:?} is not {what}")))?);
        }
        Ok(items)
    }

    /// Requires the line to have no fields left.
    pub fn finish(mut self) -> Result<(), LineError> {
        match self.opt()? {
            None => Ok(()),
            Some(extra) => Err(self.error(format!("unexpected trailing field {extra:?}"))),
        }
    }
}

/// A frame payload: its head line, `name fields…`, and the body after
/// the first `\n` of a message that carries one.
#[derive(Debug)]
pub struct Head<'a> {
    /// The message name.
    pub name: &'a str,
    /// The head line's other fields.
    pub fields: Fields<'a>,
    body: Option<&'a str>,
}

impl<'a> Head<'a> {
    /// Splits a frame payload into its head and body.
    pub fn parse(text: &'a str) -> Result<Self, LineError> {
        let (head, body) = match text.split_once('\n') {
            Some((head, body)) => (head, Some(body)),
            None => (text, None),
        };
        let mut fields = Fields::new(head, 1);
        let name = fields.token()?;
        Ok(Self { name, fields, body })
    }

    /// The body of a message that carries one (possibly empty).
    pub fn body(&mut self) -> Result<&'a str, LineError> {
        let name = self.name;
        self.body
            .take()
            .ok_or_else(|| self.fields.error(format!("{name} needs a body")))
    }

    /// Ends the message: no head field left, and no body it did not take.
    pub fn finish(self) -> Result<(), LineError> {
        if self.body.is_some() {
            return Err(self.fields.error(format!("{} takes no body", self.name)));
        }
        self.fields.finish()
    }
}

/// A reader over the lines of one body.
#[derive(Debug)]
pub struct LineReader<'a> {
    rest: &'a str,
    /// The number of the line read last (0 before the first).
    line: usize,
}

impl<'a> LineReader<'a> {
    /// A reader before the first line of `text`.
    pub fn new(text: &'a str) -> Self {
        Self {
            rest: text,
            line: 0,
        }
    }

    /// An error naming the line read last.
    pub fn error(&self, what: impl Into<String>) -> LineError {
        Fields::new("", self.line.max(1)).error(what)
    }

    fn line(&mut self) -> Result<&'a str, LineError> {
        self.line += 1;
        let (line, rest) = self
            .rest
            .split_once('\n')
            .ok_or_else(|| self.error("truncated: no newline-terminated line"))?;
        self.rest = rest;
        Ok(line)
    }

    /// Requires the next line to be exactly `header`.
    pub fn header(&mut self, header: &str) -> Result<(), LineError> {
        let line = self.line()?;
        if line != header {
            return Err(self.error(format!("expected header {header:?}, got {line:?}")));
        }
        Ok(())
    }

    /// The next line as `label` followed by its fields.
    pub fn fields(&mut self, label: &str) -> Result<Fields<'a>, LineError> {
        let line = self.line()?;
        match line.strip_prefix(label) {
            Some("") => Ok(Fields::new("", self.line)),
            Some(rest) if rest.starts_with(' ') => Ok(Fields {
                rest: Some(&rest[1..]),
                line: self.line,
            }),
            _ => Err(self.error(format!("expected a {label:?} line, got {line:?}"))),
        }
    }

    /// A `label` line whose fields `read` takes, leaving none over.
    pub fn field<T>(
        &mut self,
        label: &str,
        read: impl FnOnce(&mut Fields<'a>) -> Result<T, LineError>,
    ) -> Result<T, LineError> {
        let mut fields = self.fields(label)?;
        let value = read(&mut fields)?;
        fields.finish()?;
        Ok(value)
    }

    /// The next line's label (its first field) and its other fields.
    pub fn tagged(&mut self) -> Result<(&'a str, Fields<'a>), LineError> {
        let mut fields = Fields::new(self.line()?, self.line);
        Ok((fields.token()?, fields))
    }

    /// A `label <n>` line opening a counted section of at most `max`.
    pub fn count(&mut self, label: &str, max: usize) -> Result<usize, LineError> {
        self.field(label, |fields| fields.count(max))
    }

    /// A byte-exact section: exactly `len` bytes, then `\n`.
    pub fn take(&mut self, len: usize) -> Result<&'a str, LineError> {
        let newline = self.rest.as_bytes().get(len) == Some(&b'\n');
        let Some(section) = self.rest.get(..len).filter(|_| newline) else {
            return Err(self.error(format!("no {len}-byte section and newline follow")));
        };
        self.rest = &self.rest[len + 1..];
        self.line += 1 + section.bytes().filter(|&byte| byte == b'\n').count();
        Ok(section)
    }

    /// The next `count` lines as one section, each with its `\n`: a run
    /// of lines the caller handles as a unit (say, keys by its bytes)
    /// before reading on from the line after it.
    pub fn lines(&mut self, count: usize) -> Result<&'a str, LineError> {
        let start = self.rest;
        for _ in 0..count {
            self.line()?;
        }
        Ok(&start[..start.len() - self.rest.len()])
    }

    /// `blob`, a section the line read last references, as fields whose
    /// errors name that line.
    pub fn fields_of<'b>(&self, blob: &'b str) -> Fields<'b> {
        Fields::new(blob, self.line.max(1))
    }

    /// True when the next line is the `end` line.
    pub fn at_end(&self) -> bool {
        self.rest.starts_with("end\n")
    }

    /// The `end` line, with nothing after it.
    pub fn end(mut self) -> Result<(), LineError> {
        self.field("end", |_| Ok(()))?;
        self.finish()
    }

    /// Nothing after the line read last: the close of a body that ends
    /// without an `end` line.
    pub fn finish(mut self) -> Result<(), LineError> {
        if !self.rest.is_empty() {
            self.line += 1;
            return Err(self.error("content after the last line"));
        }
        Ok(())
    }

    /// Everything after the line read last: a final section that runs to
    /// the end of the body.
    pub fn rest(&self) -> &'a str {
        self.rest
    }
}
