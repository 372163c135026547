//! A cell and its jobs: the one place that knows the job line.
//!
//! A cell is one payload its `n` jobs share; job `i` is that payload
//! followed by one `job <i> of <n>` line.  Whoever dispatches writes the
//! line with [`job_payload`] and a worker's decoder takes it off again
//! with [`split_job`], so a submission carries each cell once while every
//! worker still receives a self-contained job.

use crp_obs::{LineError, LineReader};

/// Job `index` of a `count`-job cell: the cell's payload, which ends in
/// a newline, followed by the job line.
pub fn job_payload(cell: &str, index: usize, count: usize) -> String {
    format!("{cell}job {index} of {count}\n")
}

/// The job line of a payload [`split_job`] took apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobLine {
    /// The job's index within its cell.
    pub index: usize,
    /// The number of jobs the line says the cell has.
    pub count: usize,
    /// The line's 1-based number within the job payload.
    pub line: usize,
}

impl JobLine {
    /// An error naming the job line.
    pub fn error(&self, what: impl Into<String>) -> LineError {
        LineError {
            line: self.line,
            what: what.into(),
        }
    }
}

/// Splits a job payload at its last line: the cell payload before it and
/// the parsed `job <index> of <count>` line.  The line is parsed
/// separately so a decoder can read the cell first and report a
/// malformed payload's first bad line; whether the index and count fit
/// the cell is the decoder's to judge.
///
/// The job line's error is a [`LineError`] naming it: a payload that does
/// not end in a newline-terminated `job <index> of <count>` line, with
/// both numbers canonical decimals.
pub fn split_job(payload: &str) -> (&str, Result<JobLine, LineError>) {
    let newlines = |text: &str| text.bytes().filter(|&byte| byte == b'\n').count();
    let Some(body) = payload.strip_suffix('\n') else {
        let cell = payload.rfind('\n').map_or("", |at| &payload[..=at]);
        let error = LineError {
            line: newlines(payload) + 1,
            what: "truncated: no newline-terminated job line".to_string(),
        };
        return (cell, Err(error));
    };
    let (cell, last) = payload.split_at(body.rfind('\n').map_or(0, |at| at + 1));
    let line = newlines(cell) + 1;
    let job = LineReader::new(last)
        .field("job", |fields| {
            let index = fields.int()?;
            fields.keyword("of")?;
            Ok((index, fields.int()?))
        })
        .map(|(index, count)| JobLine { index, count, line })
        .map_err(|error| LineError { line, ..error });
    (cell, job)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_job_splits_back_into_its_cell_and_line() {
        let cell = "spec\nref 00ff\n";
        let job = job_payload(cell, 3, 12);
        assert_eq!(job, "spec\nref 00ff\njob 3 of 12\n");
        let (split, line) = split_job(&job);
        assert_eq!(split, cell);
        assert_eq!(
            line,
            Ok(JobLine {
                index: 3,
                count: 12,
                line: 3
            })
        );
        assert_eq!(line.unwrap().error("past the plan").line, 3);
    }

    #[test]
    fn malformed_job_lines_name_their_line() {
        for (payload, cell, line) in [
            ("spec\njob 1 of 2", "spec\n", 2),
            ("spec\njob 1 of 2\n\n", "spec\njob 1 of 2\n", 3),
            ("spec\njob 01 of 2\n", "spec\n", 2),
            ("spec\njob 1 of\n", "spec\n", 2),
            ("spec\njob 1 of 2 3\n", "spec\n", 2),
            ("spec\njob 1  of 2\n", "spec\n", 2),
            ("spec\nshard 1\n", "spec\n", 2),
            ("job -1 of 2\n", "", 1),
            ("", "", 1),
        ] {
            let (split, job) = split_job(payload);
            assert_eq!(split, cell, "{payload:?}");
            assert_eq!(job.unwrap_err().line, line, "{payload:?}");
        }
    }
}
