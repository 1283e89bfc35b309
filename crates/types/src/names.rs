//! Name tables for the enums a run is configured with (HTM model, hint
//! mode, input scale): one row per value with its spellings, the display
//! name first. `Display` and `FromStr` both read the row, so a new value
//! is one row.

/// One enum's name table, in `ALL` order.
pub type NameTable<T, const N: usize> = [(T, &'static [&'static str]); N];

/// The table's values, in row order: the enum's `ALL` list.
pub const fn values<T: Copy, const N: usize>(table: &NameTable<T, N>) -> [T; N] {
    let mut all = [table[0].0; N];
    let mut i = 1;
    while i < N {
        all[i] = table[i].0;
        i += 1;
    }
    all
}

/// `value`'s spellings.
///
/// # Panics
///
/// Panics if the table has no row for `value`.
pub fn spellings<T: Copy + PartialEq>(
    table: &[(T, &'static [&'static str])],
    value: T,
) -> &'static [&'static str] {
    table
        .iter()
        .find(|(v, _)| *v == value)
        .expect("every value has a name row")
        .1
}

/// The value one of whose spellings is `s`, ignoring ASCII case.
///
/// # Errors
///
/// Names the unknown spelling and lists the display names.
pub fn parse<T: Copy>(
    table: &[(T, &'static [&'static str])],
    what: &str,
    s: &str,
) -> Result<T, String> {
    table
        .iter()
        .find(|(_, names)| names.iter().any(|n| n.eq_ignore_ascii_case(s)))
        .map(|&(v, _)| v)
        .ok_or_else(|| {
            let names: Vec<&str> = table.iter().map(|(_, n)| n[0]).collect();
            format!(
                "unknown {what} `{s}` (expected one of {})",
                names.join(", ")
            )
        })
}
