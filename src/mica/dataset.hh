/**
 * @file
 * Conversion between profile collections and dataset matrices, plus
 * the CSV exports (`--csv=FILE`). The exports are write-only: the
 * profile store (pipeline/profile_store.hh) is what a rerun reads.
 */

#pragma once

#include <string>
#include <vector>

#include "mica/profile.hh"
#include "stats/matrix.hh"

namespace mica
{

/** @return 47-column matrix; one row per profile, Table II order. */
Matrix profilesToMatrix(const std::vector<MicaProfile> &profiles);

/**
 * Write profiles as CSV: header row of characteristic names, then one
 * row per benchmark (name, instCount, 47 values).
 * @throws util::IoError naming @p path when it cannot be written.
 */
void saveProfilesCsv(const std::string &path,
                     const std::vector<MicaProfile> &profiles);

/**
 * Generic labeled-matrix CSV writer (used for the HPC dataset and the
 * experiment outputs): header "name,<colNames...>", one row per entry.
 * @throws util::IoError naming @p path when it cannot be written.
 */
void saveMatrixCsv(const std::string &path, const Matrix &m);

} // namespace mica
