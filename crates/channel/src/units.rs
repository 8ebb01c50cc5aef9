//! Decibel / linear unit conversions.
//!
//! The paper states powers in dBm (`P_UL = 7.5 dBm`, `P_DL = 40 dBm`) and
//! the noise power spectral density in dBm/Hz (`σ² = −174 dBm/Hz`); all
//! internal SNR arithmetic is linear (milliwatts), so these helpers sit at
//! every boundary.

/// Converts a power in dBm to milliwatts.
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Converts a power in milliwatts to dBm.
///
/// # Panics
/// Panics for non-positive powers, which have no dB representation.
pub fn mw_to_dbm(mw: f64) -> f64 {
    assert!(mw > 0.0, "mw_to_dbm: power must be positive, got {mw}");
    10.0 * mw.log10()
}

/// Converts a dimensionless linear ratio to dB.
///
/// # Panics
/// Panics for non-positive ratios.
pub fn linear_to_db(ratio: f64) -> f64 {
    assert!(
        ratio > 0.0,
        "linear_to_db: ratio must be positive, got {ratio}"
    );
    10.0 * ratio.log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_points() {
        assert!((dbm_to_mw(0.0) - 1.0).abs() < 1e-12);
        assert!((dbm_to_mw(30.0) - 1000.0).abs() < 1e-9);
        assert!((dbm_to_mw(-30.0) - 0.001).abs() < 1e-12);
    }

    #[test]
    fn round_trips() {
        for &dbm in &[-174.0, -45.0, 0.0, 7.5, 40.0] {
            assert!((mw_to_dbm(dbm_to_mw(dbm)) - dbm).abs() < 1e-9);
        }
        for &db in &[-20.0, 0.0, 76.6] {
            assert!((linear_to_db(10f64.powf(db / 10.0)) - db).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_power_has_no_dbm() {
        mw_to_dbm(0.0);
    }
}
