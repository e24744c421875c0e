//! Synthetic stand-ins for the proprietary category classifications.
//!
//! The paper uses the first three levels of the Foursquare venue hierarchy
//! (Taxi-Foursquare data), the NAICS industry classification (Safegraph
//! data), and nine campus building categories (UBC data). Those files are
//! not redistributable, so we construct hierarchies with the same depth,
//! realistic fan-out, and recognizable names; the mechanism only ever
//! observes tree *shape* through [`crate::CategoryDistance`], so matching
//! shape preserves behaviour (DESIGN.md §4).

use crate::tree::CategoryHierarchy;

/// Builds a Foursquare-like three-level venue hierarchy.
///
/// Nine roots mirroring Foursquare's top level ("Arts & Entertainment",
/// "Food", ...), each with 3–5 mid-level groups and 2–4 leaves per group
/// (≈ 100 leaves overall).
pub fn foursquare() -> CategoryHierarchy {
    let spec: &[(&str, &[(&str, &[&str])])] = &[
        (
            "Arts & Entertainment",
            &[
                (
                    "Museum",
                    &["Art Museum", "History Museum", "Science Museum"],
                ),
                (
                    "Performing Arts",
                    &["Theater", "Concert Hall", "Opera House"],
                ),
                (
                    "Stadium",
                    &["Baseball Stadium", "Football Stadium", "Basketball Arena"],
                ),
                ("Movie Theater", &["Multiplex", "Indie Movie Theater"]),
            ],
        ),
        (
            "Food",
            &[
                (
                    "Restaurant",
                    &[
                        "Italian Restaurant",
                        "Chinese Restaurant",
                        "Mexican Restaurant",
                        "American Restaurant",
                    ],
                ),
                (
                    "Fast Food",
                    &["Burger Joint", "Pizza Place", "Sandwich Place"],
                ),
                ("Café", &["Coffee Shop", "Tea Room", "Bakery"]),
                ("Dessert", &["Ice Cream Shop", "Donut Shop"]),
            ],
        ),
        (
            "Nightlife Spot",
            &[
                (
                    "Bar",
                    &["Dive Bar", "Wine Bar", "Cocktail Bar", "Sports Bar"],
                ),
                ("Nightclub", &["Dance Club", "Jazz Club"]),
                ("Pub", &["Irish Pub", "Gastropub"]),
            ],
        ),
        (
            "Outdoors & Recreation",
            &[
                ("Park", &["City Park", "Playground", "Botanical Garden"]),
                ("Gym / Fitness", &["Gym", "Yoga Studio", "Climbing Gym"]),
                ("Water", &["Beach", "Marina"]),
            ],
        ),
        (
            "Professional & Other Places",
            &[
                (
                    "Office",
                    &["Corporate Office", "Coworking Space", "Tech Startup Office"],
                ),
                (
                    "Medical",
                    &["Hospital", "Dentist's Office", "Doctor's Office"],
                ),
                (
                    "School",
                    &["Elementary School", "High School", "University Building"],
                ),
            ],
        ),
        (
            "Shop & Service",
            &[
                ("Clothing", &["Shoe Shop", "Boutique", "Department Store"]),
                (
                    "Food & Drink Shop",
                    &["Grocery Store", "Liquor Store", "Farmers Market"],
                ),
                (
                    "Services",
                    &["Bank", "Salon / Barbershop", "Laundry Service"],
                ),
                ("Electronics", &["Electronics Store", "Mobile Phone Shop"]),
            ],
        ),
        (
            "Travel & Transport",
            &[
                (
                    "Station",
                    &["Train Station", "Metro Station", "Bus Station"],
                ),
                ("Airport", &["Airport Terminal", "Airport Lounge"]),
                ("Lodging", &["Hotel", "Hostel", "Bed & Breakfast"]),
            ],
        ),
        (
            "Residence",
            &[
                ("Home", &["Home (private)", "Apartment Building"]),
                ("Student Housing", &["Dormitory", "Student Apartment"]),
            ],
        ),
        (
            "Event",
            &[
                ("Public Event", &["Street Fair", "Parade", "Festival"]),
                ("Private Event", &["Conference", "Convention", "Trade Show"]),
            ],
        ),
    ];
    build_from_spec(spec)
}

/// Builds a NAICS-like three-level industry hierarchy (sector → subsector →
/// industry group), mirroring the 2-/3-/4-digit NAICS structure that
/// Safegraph uses.
pub fn naics() -> CategoryHierarchy {
    let spec: &[(&str, &[(&str, &[&str])])] = &[
        (
            "44-45 Retail Trade",
            &[
                (
                    "441 Motor Vehicle Dealers",
                    &["4411 Automobile Dealers", "4413 Auto Parts Stores"],
                ),
                (
                    "445 Food & Beverage Stores",
                    &[
                        "4451 Grocery Stores",
                        "4452 Specialty Food",
                        "4453 Liquor Stores",
                    ],
                ),
                (
                    "448 Clothing Stores",
                    &["4481 Clothing", "4482 Shoe Stores", "4483 Jewelry"],
                ),
                (
                    "452 General Merchandise",
                    &["4522 Department Stores", "4523 Supercenters"],
                ),
            ],
        ),
        (
            "72 Accommodation & Food Services",
            &[
                ("721 Accommodation", &["7211 Hotels", "7213 Rooming Houses"]),
                (
                    "722 Food Services",
                    &[
                        "7223 Special Food Services",
                        "7224 Drinking Places",
                        "7225 Restaurants",
                    ],
                ),
            ],
        ),
        (
            "71 Arts, Entertainment & Recreation",
            &[
                (
                    "711 Performing Arts & Sports",
                    &["7111 Performing Arts Companies", "7112 Spectator Sports"],
                ),
                ("712 Museums & Historical Sites", &["7121 Museums & Parks"]),
                (
                    "713 Amusement & Recreation",
                    &["7131 Amusement Parks", "7139 Other Recreation"],
                ),
            ],
        ),
        (
            "62 Health Care & Social Assistance",
            &[
                (
                    "621 Ambulatory Health Care",
                    &["6211 Offices of Physicians", "6212 Offices of Dentists"],
                ),
                ("622 Hospitals", &["6221 General Hospitals"]),
                ("624 Social Assistance", &["6244 Child Day Care"]),
            ],
        ),
        (
            "61 Educational Services",
            &[(
                "611 Educational Services",
                &[
                    "6111 Elementary & Secondary Schools",
                    "6113 Colleges & Universities",
                    "6116 Other Schools",
                ],
            )],
        ),
        (
            "81 Other Services",
            &[
                ("811 Repair & Maintenance", &["8111 Automotive Repair"]),
                (
                    "812 Personal & Laundry",
                    &["8121 Personal Care Services", "8123 Drycleaning & Laundry"],
                ),
                (
                    "813 Religious & Civic Orgs",
                    &["8131 Religious Organizations"],
                ),
            ],
        ),
        (
            "48-49 Transportation & Warehousing",
            &[
                ("481 Air Transportation", &["4811 Scheduled Air"]),
                (
                    "485 Transit & Ground Passenger",
                    &["4851 Urban Transit", "4853 Taxi Service"],
                ),
            ],
        ),
        (
            "52 Finance & Insurance",
            &[
                (
                    "522 Credit Intermediation",
                    &["5221 Depository Credit (Banks)"],
                ),
                ("524 Insurance Carriers", &["5241 Insurance Carriers"]),
            ],
        ),
    ];
    build_from_spec(spec)
}

/// Builds the campus hierarchy: nine building categories as in the UBC
/// dataset (§6.1.3), grouped under three roots so the category distance has
/// more than one level of structure.
pub fn campus() -> CategoryHierarchy {
    let spec: &[(&str, &[(&str, &[&str])])] = &[
        (
            "Academic",
            &[
                ("Teaching", &["Academic Building", "Lecture Hall"]),
                ("Research", &["Laboratory", "Library"]),
            ],
        ),
        (
            "Student Life",
            &[
                ("Housing", &["Student Residence"]),
                ("Amenities", &["Dining Hall", "Student Union"]),
            ],
        ),
        (
            "Facilities",
            &[
                ("Sport", &["Stadium / Gym"]),
                ("Admin", &["Administrative Building"]),
            ],
        ),
    ];
    build_from_spec(spec)
}

/// Builds a hierarchy from a static three-level spec.
fn build_from_spec(spec: &[(&str, &[(&str, &[&str])])]) -> CategoryHierarchy {
    let mut h = CategoryHierarchy::new();
    for (root_name, mids) in spec {
        let root = h.add_root(*root_name);
        for (mid_name, leaves) in *mids {
            let mid = h.add_child(root, *mid_name);
            for leaf in *leaves {
                h.add_child(mid, *leaf);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::CategoryDistance;

    #[test]
    fn foursquare_shape() {
        let h = foursquare();
        assert_eq!(h.max_level(), 3);
        assert_eq!(h.roots().len(), 9);
        assert!(h.leaves().len() >= 70, "got {}", h.leaves().len());
        // Every leaf is at level 3.
        for l in h.leaves() {
            assert_eq!(h.level(l), 3);
        }
    }

    #[test]
    fn naics_shape() {
        let h = naics();
        assert_eq!(h.max_level(), 3);
        assert_eq!(h.roots().len(), 8);
        assert!(h.leaves().len() >= 25);
    }

    #[test]
    fn campus_has_nine_leaf_categories() {
        let h = campus();
        assert_eq!(h.leaves().len(), 9);
        assert_eq!(h.max_level(), 3);
    }

    #[test]
    fn cross_root_distances_hit_cap_in_all_builders() {
        for h in [foursquare(), naics(), campus()] {
            let d = CategoryDistance::build(&h);
            let roots = h.roots();
            assert_eq!(d.get(roots[0], roots[1]), CategoryDistance::UNRELATED);
            assert_eq!(d.max_distance(), CategoryDistance::UNRELATED);
        }
    }

    #[test]
    fn unique_names_within_each_builder() {
        for h in [foursquare(), naics(), campus()] {
            let mut names: Vec<&str> = h.ids().map(|i| h.node(i).name.as_str()).collect();
            let before = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), before, "duplicate category names");
        }
    }
}
